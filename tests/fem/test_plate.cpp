// ACM plate element and PCB plate model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "fem/plate.hpp"
#include "materials/solid.hpp"

namespace af = aeropack::fem;
namespace am = aeropack::materials;
namespace an = aeropack::numeric;

TEST(PlateRigidity, ClosedForm) {
  const auto al = am::aluminum_6061();
  const double d = af::plate_rigidity(al, 2e-3);
  const double expected = al.youngs_modulus * 8e-9 /
                          (12.0 * (1.0 - al.poisson_ratio * al.poisson_ratio));
  EXPECT_NEAR(d, expected, 1e-9 * expected);
  EXPECT_THROW(af::plate_rigidity(al, 0.0), std::invalid_argument);
}

TEST(AcmElement, StiffnessSymmetricWithRigidBodyNullspace) {
  const an::Matrix k = af::acm_plate_stiffness(0.1, 0.08, 50.0, 0.3);
  EXPECT_LT(k.asymmetry(), 1e-8 * k.norm());
  // Rigid translation w = 1 everywhere (wx = wy = 0): zero strain energy.
  an::Vector w(12, 0.0);
  for (std::size_t n = 0; n < 4; ++n) w[3 * n] = 1.0;
  const an::Vector f = k * w;
  for (double v : f) EXPECT_NEAR(v, 0.0, 1e-6 * k.norm());
}

TEST(AcmElement, TiltNullspace) {
  // Rigid tilt w = x: w = x_i at corners, wx = 1, wy = 0.
  const double a = 0.1, b = 0.08;
  const an::Matrix k = af::acm_plate_stiffness(a, b, 50.0, 0.3);
  const double xs[4] = {0.0, a, a, 0.0};
  an::Vector w(12, 0.0);
  for (std::size_t n = 0; n < 4; ++n) {
    w[3 * n] = xs[n];
    w[3 * n + 1] = 1.0;
  }
  const an::Vector f = k * w;
  for (double v : f) EXPECT_NEAR(v, 0.0, 1e-6 * k.norm());
}

TEST(AcmElement, MassPreservesTotal) {
  const double a = 0.1, b = 0.08, mpa = 3.2;
  const an::Matrix m = af::acm_plate_mass(a, b, mpa);
  an::Vector ones(12, 0.0);
  for (std::size_t n = 0; n < 4; ++n) ones[3 * n] = 1.0;
  const an::Vector mv = m * ones;
  double total = 0.0;
  for (std::size_t n = 0; n < 4; ++n) total += mv[3 * n];
  EXPECT_NEAR(total, mpa * a * b, 1e-9);
}

TEST(PlateModel, SimplySupportedFundamentalMatchesAnalytic) {
  const auto al = am::aluminum_6061();
  af::PlateModel plate(0.3, 0.2, 2e-3, al, 8, 6);
  plate.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  const double f_fem = plate.fundamental_frequency();
  const double f_exact = af::ss_plate_frequency(0.3, 0.2, 2e-3, al, 1, 1);
  EXPECT_NEAR(f_fem, f_exact, 0.03 * f_exact);
}

TEST(PlateModel, HigherModesOrderedAndClose) {
  const auto al = am::aluminum_6061();
  af::PlateModel plate(0.24, 0.24, 1.5e-3, al, 8, 8);
  plate.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  const auto res = plate.solve_modal();
  const double f11 = af::ss_plate_frequency(0.24, 0.24, 1.5e-3, al, 1, 1);
  const double f21 = af::ss_plate_frequency(0.24, 0.24, 1.5e-3, al, 2, 1);
  EXPECT_NEAR(res.frequencies_hz[0], f11, 0.03 * f11);
  // Modes 2 and 3 are the degenerate (2,1)/(1,2) pair on a square plate.
  EXPECT_NEAR(res.frequencies_hz[1], f21, 0.05 * f21);
  EXPECT_NEAR(res.frequencies_hz[2], f21, 0.05 * f21);
}

TEST(PlateModel, ClampedStifferThanSimplySupported) {
  const auto fr4 = am::fr4();
  af::PlateModel ss(0.2, 0.15, 1.6e-3, fr4, 6, 5);
  ss.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  af::PlateModel cl(0.2, 0.15, 1.6e-3, fr4, 6, 5);
  cl.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  EXPECT_GT(cl.fundamental_frequency(), 1.4 * ss.fundamental_frequency());
}

TEST(PlateModel, SmearedMassLowersFrequency) {
  const auto fr4 = am::fr4();
  af::PlateModel bare(0.2, 0.15, 1.6e-3, fr4, 6, 5);
  bare.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  af::PlateModel loaded(0.2, 0.15, 1.6e-3, fr4, 6, 5);
  loaded.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  loaded.add_smeared_mass(4.0);  // components
  EXPECT_LT(loaded.fundamental_frequency(), bare.fundamental_frequency());
  // Analytic check with extra mass per area.
  const double f_exact = af::ss_plate_frequency(0.2, 0.15, 1.6e-3, fr4, 1, 1, 4.0);
  EXPECT_NEAR(loaded.fundamental_frequency(), f_exact, 0.04 * f_exact);
}

TEST(PlateModel, PointMassLowersFrequency) {
  const auto fr4 = am::fr4();
  af::PlateModel p(0.2, 0.15, 1.6e-3, fr4, 6, 5);
  p.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  const double f0 = p.fundamental_frequency();
  p.add_point_mass(0.1, 0.075, 0.1);  // 100 g at center
  EXPECT_LT(p.fundamental_frequency(), f0);
}

TEST(PlateModel, DoublerRaisesFrequency) {
  // The paper's Fig. 2 design lever: stiffen the power supply board to move
  // its main mode to the allocated ~500 Hz band.
  const auto fr4 = am::fr4();
  af::PlateModel p(0.2, 0.15, 1.6e-3, fr4, 6, 5);
  p.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  const double f0 = p.fundamental_frequency();
  af::PlateModel stiff(0.2, 0.15, 1.6e-3, fr4, 6, 5);
  stiff.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  stiff.add_doubler(0.05, 0.15, 0.04, 0.11, 2.0);
  EXPECT_GT(stiff.fundamental_frequency(), 1.2 * f0);
}

TEST(PlateModel, PointSupportsRaiseFreePlate) {
  const auto fr4 = am::fr4();
  af::PlateModel p(0.2, 0.15, 1.6e-3, fr4, 6, 5);
  // Corners on standoffs only.
  p.add_point_support(0.0, 0.0);
  p.add_point_support(0.2, 0.0);
  p.add_point_support(0.0, 0.15);
  p.add_point_support(0.2, 0.15);
  const double f = p.fundamental_frequency();
  EXPECT_GT(f, 10.0);  // no longer a free body
  af::PlateModel ss(0.2, 0.15, 1.6e-3, fr4, 6, 5);
  ss.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  EXPECT_LT(f, ss.fundamental_frequency());  // corner supports are softer
}

TEST(PlateModel, TotalMassAccounting) {
  const auto fr4 = am::fr4();
  af::PlateModel p(0.2, 0.1, 1.6e-3, fr4, 4, 4);
  p.add_smeared_mass(2.0);
  p.add_point_mass(0.1, 0.05, 0.25);
  const double expected = (fr4.density * 1.6e-3 + 2.0) * 0.02 + 0.25;
  EXPECT_NEAR(p.total_mass(), expected, 1e-9);
}

TEST(PlateModel, InvalidInputsThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto fr4 = am::fr4();
  EXPECT_THROW(af::PlateModel(0.0, 0.1, 1e-3, fr4, 4, 4), std::invalid_argument);
  af::PlateModel p(0.2, 0.1, 1.6e-3, fr4, 4, 4);
  EXPECT_THROW(p.add_point_mass(0.1, 0.05, 0.0), std::invalid_argument);
  EXPECT_THROW(p.add_doubler(0.0, 0.1, 0.0, 0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(af::ss_plate_frequency(0.2, 0.1, 1e-3, fr4, 0, 1), std::invalid_argument);

  // nearest_node clamps onto the plate, so without the refusal an off-plate
  // or NaN point would snap to an edge node (mass_x = 5 m on the 0.16 m
  // Fig. 2 board would report f1 ~ 530 Hz).
  try {
    p.add_point_mass(5.0, 0.05, 0.18);
    ADD_FAILURE() << "off-plate mass accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("add_point_mass: x"), std::string::npos) << e.what();
  }
  EXPECT_THROW(p.add_point_mass(0.1, -0.01, 0.18), std::invalid_argument);
  EXPECT_THROW(p.add_point_mass(nan, 0.05, 0.18), std::invalid_argument);
  EXPECT_THROW(p.add_point_mass(0.1, 0.05, nan), std::invalid_argument);
  EXPECT_THROW(p.add_point_mass(0.1, 0.05, inf), std::invalid_argument);
  EXPECT_THROW(p.add_point_support(0.21, 0.05), std::invalid_argument);
  EXPECT_THROW(p.add_point_support(0.1, inf), std::invalid_argument);
  EXPECT_THROW(p.add_point_support(nan, 0.05), std::invalid_argument);
  // Edges and corners are on the plate, and nothing refused was recorded.
  p.add_point_support(0.2, 0.1);
  p.add_point_mass(0.0, 0.0, 0.25);
  EXPECT_NEAR(p.total_mass(), fr4.density * 1.6e-3 * 0.02 + 0.25, 1e-12);
}

// Property: SS plate FEM frequency converges to analytic with refinement.
class PlateConvergence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlateConvergence, WithinFivePercent) {
  const std::size_t n = GetParam();
  const auto al = am::aluminum_6061();
  af::PlateModel p(0.25, 0.18, 2e-3, al, n, n);
  p.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  const double exact = af::ss_plate_frequency(0.25, 0.18, 2e-3, al, 1, 1);
  EXPECT_NEAR(p.fundamental_frequency(), exact, 0.05 * exact);
}

INSTANTIATE_TEST_SUITE_P(Meshes, PlateConvergence, ::testing::Values(4u, 6u, 8u));
