// Observability contract of the mission tier: the mission.* counters land
// in the bound registry, the algorithmic ones agree exactly with the
// MissionSolution bookkeeping, and the deliberately nondeterministic
// wall-clock key sits under the mission.wallclock. prefix that report
// gating excludes (tools/check_report.py).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "exec/context.hpp"
#include "materials/solid.hpp"
#include "mission/profile.hpp"
#include "mission/transient.hpp"
#include "thermal/fv.hpp"

namespace am = aeropack::mission;
namespace at = aeropack::thermal;

namespace {

std::uint64_t at_key(const std::map<std::string, std::uint64_t>& counters,
                     const std::string& key) {
  const auto it = counters.find(key);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace

TEST(MissionObs, CountersMatchSolutionBookkeeping) {
  at::FvModel m(at::FvGrid::uniform(0.06, 0.02, 0.01, 6, 4, 3));
  m.set_material(aeropack::materials::aluminum_6061());
  m.add_power(m.all_cells(), 4.0);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(40.0, 300.0));

  const am::Profile profile = am::Profile::cubesat_eclipse(1, 120.0, 0.4, 330.0, 250.0, 0.5);
  aeropack::ExecutionContext ctx(aeropack::ExecutionConfig{1, true});
  am::AdaptiveOptions adaptive;
  adaptive.tolerance = 0.02;
  adaptive.dt_initial = 30.0;
  const am::MissionSolution sol = am::run_fv_mission(ctx, m, profile, 300.0, adaptive);

  const auto counters = ctx.metrics().counters();
  EXPECT_EQ(at_key(counters, "mission.steps"), sol.steps_accepted);
  EXPECT_EQ(at_key(counters, "mission.step_rejections"), sol.steps_rejected);
  EXPECT_EQ(at_key(counters, "mission.phase_transitions"), sol.phase_transitions);
  EXPECT_EQ(at_key(counters, "mission.cg_iterations"), sol.linear_iterations);
  // Wall clock is nondeterministic by nature but must be present — gating
  // excludes it by the "mission.wallclock." prefix, so the key spelling is
  // part of the contract.
  EXPECT_EQ(counters.count("mission.wallclock.elapsed_us"), 1u);

  const auto gauges = ctx.metrics().gauges();
  EXPECT_DOUBLE_EQ(gauges.at("mission.sim_seconds"), profile.total_duration());
  EXPECT_GE(gauges.at("mission.wall_seconds"), 0.0);
}

TEST(MissionObs, CountersStayInTheirContext) {
  at::FvModel m(at::FvGrid::uniform(0.06, 0.02, 0.01, 6, 4, 3));
  m.set_material(aeropack::materials::aluminum_6061());
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(40.0, 300.0));
  am::Profile profile("p");
  profile.add_phase(am::Phase::constant("dwell", 30.0, 310.0));

  aeropack::ExecutionContext armed(aeropack::ExecutionConfig{1, true});
  aeropack::ExecutionContext other(aeropack::ExecutionConfig{1, true});
  (void)am::run_fv_mission(armed, m, profile, 300.0);
  EXPECT_GT(at_key(armed.metrics().counters(), "mission.steps"), 0u);
  EXPECT_EQ(at_key(other.metrics().counters(), "mission.steps"), 0u);
}
