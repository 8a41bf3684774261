// Thread-count determinism of whole mission campaigns: the adaptive
// controller is serial double arithmetic over deterministic parallel
// kernels, so an identical march — accepted times, traces, fields,
// counters — must come back bitwise identical at 1, 2 and 8 threads.
// This is the mission tier's TSan-facing contract as well: the same test
// binary runs under tsan-fem in CI.
#include <gtest/gtest.h>

#include <vector>

#include "exec/context.hpp"
#include "materials/solid.hpp"
#include "mission/profile.hpp"
#include "mission/transient.hpp"
#include "thermal/fv.hpp"

namespace am = aeropack::mission;
namespace at = aeropack::thermal;

namespace {

at::FvModel make_card() {
  at::FvModel m(at::FvGrid::uniform(0.16, 0.1, 0.0016, 8, 5, 2));
  m.set_material(aeropack::materials::fr4());
  m.set_conductivity({0, 8, 0, 5, 0, 1}, 20.0, 20.0, 0.5);  // copper-plane layer
  m.add_power({3, 5, 2, 4, 1, 2}, 6.0);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(250.0, 300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::convection(250.0, 300.0));
  m.set_boundary(at::Face::ZMax, at::BoundaryCondition::convection(12.0, 300.0));
  return m;
}

am::MissionSolution run_at(std::size_t threads) {
  const at::FvModel m = make_card();
  const am::Profile profile = am::Profile::do160_thermal_shock(258.15, 338.15, 20.0, 90.0);
  aeropack::ExecutionContext ctx(aeropack::ExecutionConfig{threads, false});
  am::AdaptiveOptions adaptive;
  adaptive.tolerance = 0.05;
  return am::run_fv_mission(ctx, m, profile, 300.0, adaptive);
}

}  // namespace

TEST(MissionDeterminism, CampaignBitwiseIdenticalAcrossThreadCounts) {
  const am::MissionSolution base = run_at(1);
  ASSERT_GT(base.steps_accepted, 5u);

  for (const std::size_t threads : {2u, 8u}) {
    const am::MissionSolution other = run_at(threads);
    ASSERT_EQ(other.steps_accepted, base.steps_accepted) << threads << " threads";
    ASSERT_EQ(other.steps_rejected, base.steps_rejected);
    ASSERT_EQ(other.phase_transitions, base.phase_transitions);
    ASSERT_EQ(other.linear_iterations, base.linear_iterations);
    ASSERT_EQ(other.times.size(), base.times.size());
    for (std::size_t s = 0; s < base.times.size(); ++s) {
      ASSERT_EQ(other.times[s], base.times[s]) << threads << " threads, step " << s;
      ASSERT_EQ(other.t_max[s], base.t_max[s]);
      ASSERT_EQ(other.t_min[s], base.t_min[s]);
      ASSERT_EQ(other.t_mean[s], base.t_mean[s]);
    }
    ASSERT_EQ(other.final_field.size(), base.final_field.size());
    for (std::size_t c = 0; c < base.final_field.size(); ++c)
      ASSERT_EQ(other.final_field[c], base.final_field[c]) << threads << " threads, cell " << c;
  }
}
