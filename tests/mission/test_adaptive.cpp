// Adaptive PI-controlled TR-BDF2 march: accuracy against a fine fixed-dt
// reference at a fraction of the implicit solves, phase-boundary clamping,
// rejection behavior on square-wave discontinuities and input validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exec/context.hpp"
#include "materials/solid.hpp"
#include "mission/profile.hpp"
#include "mission/transient.hpp"
#include "thermal/fv.hpp"

namespace am = aeropack::mission;
namespace at = aeropack::thermal;

namespace {

at::FvModel make_slab() {
  at::FvModel m(at::FvGrid::uniform(0.06, 0.02, 0.01, 6, 4, 3));
  m.set_material(aeropack::materials::aluminum_6061());
  m.add_power(m.all_cells(), 4.0);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(40.0, 300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::convection(40.0, 300.0));
  return m;
}

am::Profile shock_profile() {
  am::Profile p("shock");
  p.add_phase(am::Phase::constant("soak", 60.0, 300.0));
  p.add_phase(am::Phase::ramp("heat", 120.0, 300.0, 360.0));
  p.add_phase(am::Phase::constant("hold", 60.0, 360.0));
  return p;
}

double max_abs_diff(const aeropack::numeric::Vector& a, const aeropack::numeric::Vector& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

}  // namespace

TEST(MissionAdaptive, MeetsToleranceWithFewerStepsThanFixedDt) {
  const at::FvModel m = make_slab();
  const am::Profile profile = shock_profile();

  // Fine fixed-dt reference that comfortably achieves the target accuracy.
  const double dt_ref = 0.25;
  const aeropack::numeric::Vector initial(m.grid().cell_count(), 300.0);
  const at::FvTransientSolution ref = m.solve_transient(
      profile.total_duration(), dt_ref, initial, am::drive_for(profile));
  const std::size_t ref_steps = ref.times.size() - 1;  // 960 implicit solves

  am::AdaptiveOptions adaptive;
  adaptive.tolerance = 0.05;
  aeropack::ExecutionContext ctx(aeropack::ExecutionConfig{1, true});
  const am::MissionSolution sol = am::run_fv_mission(ctx, m, profile, 300.0, adaptive);

  EXPECT_GT(sol.steps_accepted, 0u);
  // Accuracy: the adaptive horizon field sits within a few tolerances of
  // the fine reference.
  EXPECT_LT(max_abs_diff(sol.final_field, ref.temperatures.back()), 10.0 * adaptive.tolerance);
  // Economy: the implicit solves the stepper counted, over every attempt
  // (two per attempt), undercut the fixed-dt solve count decisively.
  const std::size_t solves = ctx.metrics().counters().at("fv.transient_steps");
  EXPECT_EQ(solves, 2 * (sol.steps_accepted + sol.steps_rejected));
  EXPECT_LT(solves, ref_steps / 2) << "accepted " << sol.steps_accepted << " rejected "
                                   << sol.steps_rejected;
  // Trace bookkeeping: one row per accepted step plus the initial state.
  EXPECT_EQ(sol.times.size(), sol.steps_accepted + 1);
  EXPECT_EQ(sol.t_max.size(), sol.times.size());
  EXPECT_DOUBLE_EQ(sol.times.back(), profile.total_duration());
}

TEST(MissionAdaptive, LandsExactlyOnEveryPhaseBoundary) {
  const at::FvModel m = make_slab();
  const am::Profile profile = shock_profile();
  const am::MissionSolution sol = am::run_fv_mission(m, profile, 300.0);

  // Interior boundaries only: the final landing at t_end is not a
  // transition into anything.
  EXPECT_EQ(sol.phase_transitions, profile.phase_count() - 1);
  for (std::size_t i = 1; i < profile.phase_count(); ++i) {
    const double boundary = profile.phase_start(i);
    bool landed = false;
    for (const double t : sol.times) landed = landed || t == boundary;
    EXPECT_TRUE(landed) << "no accepted step ends exactly at t=" << boundary;
  }
}

TEST(MissionAdaptive, SquareWaveForcesRejectionsAndRecovers) {
  // Strong films (time constant ~3 min) so the slab actually swings with
  // the wave instead of riding its own dissipation.
  at::FvModel m = make_slab();
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(400.0, 300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::convection(400.0, 300.0));
  const am::Profile profile = am::Profile::cubesat_eclipse(2, 1200.0, 0.4, 340.0, 240.0, 0.5);

  am::AdaptiveOptions adaptive;
  adaptive.tolerance = 0.02;
  adaptive.dt_max = 300.0;
  adaptive.dt_initial = 300.0;  // deliberately too ambitious for a 100 K jump
  const am::MissionSolution sol = am::run_fv_mission(m, profile, 300.0, adaptive);

  EXPECT_GE(sol.steps_rejected, 1u);
  EXPECT_EQ(sol.phase_transitions, 3u);
  EXPECT_DOUBLE_EQ(sol.times.back(), profile.total_duration());
  // The march actually tracks the wave: warmer than start after a sunlit
  // phase end, colder after an eclipse end.
  EXPECT_GT(*std::max_element(sol.t_max.begin(), sol.t_max.end()), 310.0);
  EXPECT_LT(*std::min_element(sol.t_min.begin(), sol.t_min.end()), 290.0);
}

TEST(MissionAdaptive, CellsWithoutCapacityMarchQuasiSteadily) {
  // A layer of a material with no heat capacity (density left at 0) has no
  // rate of its own: each stage solves its balance outright, and the march
  // stays finite through the ramp.
  at::FvModel m = make_slab();
  aeropack::materials::SolidMaterial film;
  film.conductivity = 5.0;
  film.conductivity_through = 5.0;
  m.set_material(at::CellRange{0, 6, 0, 4, 2, 3}, film);
  const am::Profile profile = shock_profile();
  const am::MissionSolution sol = am::run_fv_mission(m, profile, 300.0);
  EXPECT_DOUBLE_EQ(sol.times.back(), profile.total_duration());
  for (const double v : sol.final_field) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(sol.t_max.back(), 340.0);
}

TEST(MissionAdaptive, ValidatesInputs) {
  const at::FvModel m = make_slab();
  const am::Profile profile = shock_profile();
  EXPECT_THROW(am::run_fv_mission(m, am::Profile{}, 300.0), std::invalid_argument);
  EXPECT_THROW(am::run_fv_mission(m, profile, -10.0), std::invalid_argument);
  am::AdaptiveOptions bad;
  bad.tolerance = 0.0;
  EXPECT_THROW(am::run_fv_mission(m, profile, 300.0, bad), std::invalid_argument);
  bad = {};
  bad.dt_max = 1e-6;  // < dt_min
  EXPECT_THROW(am::run_fv_mission(m, profile, 300.0, bad), std::invalid_argument);
  bad = {};
  bad.max_steps = 2;
  EXPECT_THROW(am::run_fv_mission(m, profile, 300.0, bad), std::runtime_error);
}
