// Frame model assembly, statics, modal analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "exec/context.hpp"
#include "fem/frame.hpp"
#include "fem/sdof.hpp"
#include "materials/solid.hpp"
#include "numeric/solve_dense.hpp"

namespace af = aeropack::fem;
namespace am = aeropack::materials;

namespace {
/// Cantilever of n elements along x.
af::FrameModel cantilever(std::size_t n, double length, const af::BeamSection& s) {
  af::FrameModel m;
  const auto mat = am::aluminum_6061();
  std::size_t prev = m.add_node(0.0, 0.0);
  m.fix_all(prev);
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t node = m.add_node(length * static_cast<double>(i) / n, 0.0);
    m.add_beam(prev, node, mat, s);
    prev = node;
  }
  return m;
}
}  // namespace

TEST(FrameModel, StaticCantileverTipDeflection) {
  const double l = 0.5;
  const auto s = af::BeamSection::rectangle(0.02, 0.005);
  auto m = cantilever(4, l, s);
  aeropack::numeric::Vector loads(m.dof_count(), 0.0);
  const std::size_t tip = m.node_count() - 1;
  loads[m.global_dof(tip, af::Dof::Uy)] = -50.0;
  const auto u = m.solve_static(loads);
  const double e = am::aluminum_6061().youngs_modulus;
  const double expected = -50.0 * l * l * l / (3.0 * e * s.inertia);
  EXPECT_NEAR(u[m.global_dof(tip, af::Dof::Uy)], expected, 1e-3 * std::fabs(expected));
}

TEST(FrameModel, StaticSolveIsOneSkylineFactorizationMatchingDenseLu) {
  auto m = cantilever(12, 0.5, af::BeamSection::rectangle(0.02, 0.005));
  aeropack::numeric::Vector loads(m.dof_count(), 0.0);
  for (std::size_t n = 1; n < m.node_count(); ++n) {
    loads[m.global_dof(n, af::Dof::Ux)] = 3.0 * static_cast<double>(n);
    loads[m.global_dof(n, af::Dof::Uy)] = -20.0;
    loads[m.global_dof(n, af::Dof::Rz)] = 0.5;
  }
  aeropack::ExecutionConfig cfg;
  cfg.telemetry = true;
  aeropack::ExecutionContext ctx(cfg);
  aeropack::numeric::Vector u;
  {
    const aeropack::ExecutionContext::Use use(ctx);
    u = m.solve_static(loads);
  }
  EXPECT_EQ(ctx.metrics().counters().at("numeric.skyline.factorizations"), 1u);

  const af::DofMap map = m.dof_map();
  aeropack::numeric::CsrMatrix k, mass;
  m.reduced_sparse(k, mass);
  const aeropack::numeric::Vector dense =
      map.expand(aeropack::numeric::solve(k.to_dense(), map.reduce(loads)));
  double peak = 0.0;
  for (const double v : dense) peak = std::max(peak, std::fabs(v));
  ASSERT_EQ(u.size(), dense.size());
  for (std::size_t i = 0; i < u.size(); ++i) EXPECT_NEAR(u[i], dense[i], 1e-12 * peak) << i;
}

TEST(FrameModel, CantileverFundamentalFrequencyMatchesAnalytic) {
  // f1 = (1.875^2 / 2 pi) sqrt(E I / (rho A L^4)).
  const double l = 0.4;
  const auto s = af::BeamSection::rectangle(0.02, 0.004);
  auto m = cantilever(8, l, s);
  const auto modes = m.solve_modal(0.0, 1.0);
  const auto mat = am::aluminum_6061();
  const double beta = 1.8751040687;
  const double f1 = beta * beta / (2.0 * std::numbers::pi) *
                    std::sqrt(mat.youngs_modulus * s.inertia /
                              (mat.density * s.area * std::pow(l, 4.0)));
  EXPECT_NEAR(modes.frequencies_hz[0], f1, 0.01 * f1);
}

TEST(FrameModel, SpringMassMatchesSdof) {
  af::FrameModel m;
  const std::size_t n = m.add_node(0.0, 0.0);
  m.fix(n, af::Dof::Ux);
  m.fix(n, af::Dof::Rz);
  m.add_ground_spring(n, af::Dof::Uy, 4e4);
  m.add_mass(n, 2.5);
  const auto modes = m.solve_modal();
  EXPECT_NEAR(modes.frequencies_hz[0], af::natural_frequency_hz(4e4, 2.5), 1e-6);
}

TEST(FrameModel, EffectiveMassSumsToTotalForSdof) {
  af::FrameModel m;
  const std::size_t n = m.add_node(0.0, 0.0);
  m.fix(n, af::Dof::Ux);
  m.fix(n, af::Dof::Rz);
  m.add_ground_spring(n, af::Dof::Uy, 1e5);
  m.add_mass(n, 3.0);
  const auto modes = m.solve_modal(0.0, 1.0);
  EXPECT_NEAR(modes.effective_masses[0], 3.0, 1e-6);
}

TEST(FrameModel, TwoMassChainEigenvalues) {
  af::FrameModel m;
  const std::size_t a = m.add_node(0.0, 0.0);
  const std::size_t b = m.add_node(0.0, 1.0);
  for (auto n : {a, b}) {
    m.fix(n, af::Dof::Ux);
    m.fix(n, af::Dof::Rz);
  }
  const double k = 1000.0, mass = 1.0;
  m.add_ground_spring(a, af::Dof::Uy, k);
  m.add_spring(a, b, af::Dof::Uy, k);
  m.add_mass(a, mass);
  m.add_mass(b, mass);
  const auto modes = m.solve_modal(0.0, 1.0);
  const double w1 = std::sqrt(k / mass * (3.0 - std::sqrt(5.0)) / 2.0);
  const double w2 = std::sqrt(k / mass * (3.0 + std::sqrt(5.0)) / 2.0);
  EXPECT_NEAR(modes.frequencies_hz[0], w1 / (2.0 * std::numbers::pi), 1e-6);
  EXPECT_NEAR(modes.frequencies_hz[1], w2 / (2.0 * std::numbers::pi), 1e-6);
}

TEST(FrameModel, TotalMassAccounting) {
  const auto s = af::BeamSection::rectangle(0.01, 0.01);
  auto m = cantilever(4, 1.0, s);
  m.add_mass(2, 1.5);
  EXPECT_NEAR(m.total_mass(), am::aluminum_6061().density * s.area * 1.0 + 1.5, 1e-9);
}

TEST(FrameModel, InvalidUsageThrows) {
  af::FrameModel m;
  const std::size_t a = m.add_node(0.0, 0.0);
  EXPECT_THROW(m.add_beam(a, a, am::aluminum_6061(), af::BeamSection::rectangle(0.01, 0.01)),
               std::invalid_argument);
  EXPECT_THROW(m.add_beam(a, 5, am::aluminum_6061(), af::BeamSection::rectangle(0.01, 0.01)),
               std::out_of_range);
  EXPECT_THROW(m.add_mass(a, -1.0), std::invalid_argument);
  EXPECT_THROW(m.add_ground_spring(a, af::Dof::Uy, 0.0), std::invalid_argument);
}

TEST(FrameModel, AllFixedThrows) {
  af::FrameModel m;
  const std::size_t a = m.add_node(0.0, 0.0);
  m.fix_all(a);
  aeropack::numeric::Matrix k, mm;
  std::vector<std::size_t> map;
  EXPECT_THROW(m.reduced_system(k, mm, map), std::logic_error);
}

// Property: mesh refinement converges the cantilever frequency monotonically
// from above (consistent mass overestimates stiffness-to-mass slightly).
class CantileverConvergence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CantileverConvergence, FrequencyWithinTwoPercent) {
  const std::size_t n = GetParam();
  const double l = 0.3;
  const auto s = af::BeamSection::rectangle(0.015, 0.003);
  auto m = cantilever(n, l, s);
  const auto modes = m.solve_modal(0.0, 1.0);
  const auto mat = am::aluminum_6061();
  const double beta = 1.8751040687;
  const double f1 = beta * beta / (2.0 * std::numbers::pi) *
                    std::sqrt(mat.youngs_modulus * s.inertia /
                              (mat.density * s.area * std::pow(l, 4.0)));
  EXPECT_NEAR(modes.frequencies_hz[0], f1, 0.02 * f1);
}

INSTANTIATE_TEST_SUITE_P(Meshes, CantileverConvergence, ::testing::Values(2u, 4u, 8u, 16u));
