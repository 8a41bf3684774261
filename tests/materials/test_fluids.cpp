// Two-phase working fluid saturation tables.
#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>

#include "materials/fluids.hpp"

namespace am = aeropack::materials;

namespace aeropack::materials {
// Print a fluid parameter by name, not by address: gtest_discover_tests
// builds the test name from this, and an address changes with every run.
void PrintTo(const WorkingFluid* fluid, std::ostream* os) { *os << fluid->name(); }
}  // namespace aeropack::materials

TEST(Water, AtmosphericBoilingPoint) {
  const auto s = am::water().saturation(373.15);
  EXPECT_NEAR(s.pressure, 101300.0, 500.0);
  EXPECT_NEAR(s.h_fg, 2.257e6, 5e3);
  EXPECT_NEAR(s.rho_liquid, 958.0, 1.0);
}

TEST(Water, SaturationTemperatureInverse) {
  EXPECT_NEAR(am::water().saturation_temperature(101325.0), 373.15, 0.3);
  EXPECT_NEAR(am::water().saturation_temperature(2340.0), 293.15, 0.3);
}

TEST(Fluids, OutOfRangeThrows) {
  EXPECT_THROW(am::water().saturation(250.0), std::out_of_range);
  EXPECT_THROW(am::water().saturation(500.0), std::out_of_range);
  EXPECT_THROW(am::ammonia().saturation(400.0), std::out_of_range);
  EXPECT_THROW(am::water().saturation_temperature(-1.0), std::invalid_argument);
}

TEST(Fluids, AmmoniaHighPressureLowTension) {
  const auto nh3 = am::ammonia().saturation(293.15);
  const auto h2o = am::water().saturation(293.15 + 1e-9);
  EXPECT_GT(nh3.pressure, 100.0 * h2o.pressure);
  EXPECT_LT(nh3.sigma, h2o.sigma);
}

TEST(Fluids, MeritNumberRanking) {
  // Water has the highest figure of merit near 100 C among common HP fluids;
  // ammonia dominates at low temperature where water is frozen/weak.
  const double m_water = am::water().saturation(373.15).merit_number();
  const double m_meth = am::methanol().saturation(345.0).merit_number();
  const double m_acet = am::acetone().saturation(345.0).merit_number();
  EXPECT_GT(m_water, 5.0 * m_meth);
  EXPECT_GT(m_water, 5.0 * m_acet);
  EXPECT_GT(m_water, 1e10);  // ~5e10 at 100 C
}

TEST(Fluids, GasConstantFromMolarMass) {
  EXPECT_NEAR(am::water().saturation(323.15).gas_constant(), 461.5, 1.0);
  EXPECT_NEAR(am::ammonia().saturation(273.15).gas_constant(), 488.2, 1.0);
}

// Property: thermodynamic monotonicity along each saturation curve.
class FluidMonotonicity : public ::testing::TestWithParam<const am::WorkingFluid*> {};

TEST_P(FluidMonotonicity, SaturationTrendsWithTemperature) {
  const am::WorkingFluid& f = *GetParam();
  const double lo = f.t_min();
  const double hi = f.t_max();
  double prev_p = 0.0, prev_rho_v = 0.0;
  double prev_rho_l = 1e12, prev_hfg = 1e12, prev_sigma = 1e12, prev_mu = 1e12;
  for (int i = 0; i <= 20; ++i) {
    const double t = lo + (hi - lo) * i / 20.0;
    const auto s = f.saturation(t);
    EXPECT_GT(s.pressure, prev_p) << f.name() << " T=" << t;
    EXPECT_GE(s.rho_vapor, prev_rho_v) << f.name();
    EXPECT_LE(s.rho_liquid, prev_rho_l) << f.name();
    EXPECT_LE(s.h_fg, prev_hfg) << f.name();
    EXPECT_LE(s.sigma, prev_sigma) << f.name();
    EXPECT_LE(s.mu_liquid, prev_mu) << f.name();
    EXPECT_GT(s.h_fg, 0.0);
    EXPECT_GT(s.k_liquid, 0.0);
    EXPECT_GT(s.cp_liquid, 0.0);
    EXPECT_GT(s.mu_vapor, 0.0);
    EXPECT_LT(s.mu_vapor, s.mu_liquid);
    prev_p = s.pressure;
    prev_rho_v = s.rho_vapor;
    prev_rho_l = s.rho_liquid;
    prev_hfg = s.h_fg;
    prev_sigma = s.sigma;
    prev_mu = s.mu_liquid;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFluids, FluidMonotonicity,
                         ::testing::Values(&am::water(), &am::ammonia(), &am::acetone(),
                                           &am::methanol(), &am::ethanol()));

TEST(Fluids, CatalogueComplete) {
  const auto all = am::all_working_fluids();
  EXPECT_EQ(all.size(), 5u);
  for (const auto* f : all) EXPECT_FALSE(f->name().empty());
}
