// Fidelity-agnostic mission marches: the same profile and controller driven
// through the network and reduced-order steppers. Gates the adaptive
// network march's solve economy against the old fixed-dt march, the ROM
// mission's physical agreement with the FV mission it shadows, the
// drive_for_rom h_scale constraint, and the mission_rom_* service graphs
// (registration, FV-graph output-key parity, one-word fidelity swap).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/scenario_service.hpp"
#include "mission/profile.hpp"
#include "mission/service_graphs.hpp"
#include "mission/transient.hpp"
#include "rom/cache.hpp"
#include "rom/canonical.hpp"
#include "thermal/network.hpp"

namespace ac = aeropack::core;
namespace am = aeropack::mission;
namespace ar = aeropack::rom;
namespace at = aeropack::thermal;
using aeropack::numeric::Vector;

namespace {

at::ThermalNetwork flight_network() {
  at::ThermalNetwork net;
  net.add_node("equipment", 8000.0);
  net.add_node("chassis", 15000.0);
  net.add_boundary("ambient", 328.15);
  net.add_conductor(0, 1, 2.5);
  net.add_conductor(1, 2, 4.0);
  net.add_heat_load(0, 120.0);
  return net;
}

am::Profile flight_profile() { return am::Profile::arinc600_flight(328.15, 243.15, 0.02); }

ar::RomInputs seb_base_inputs() {
  ar::RomInputs in;
  in.sink_temperatures = {293.15, 293.15, 293.15};
  in.map_powers = {40.0, 15.0};
  return in;
}

}  // namespace

TEST(MissionFidelity, AdaptiveNetworkMarchSpendsFewerSolvesThanFixedDt) {
  const at::ThermalNetwork net = flight_network();
  const am::Profile profile = flight_profile();
  const double t_end = profile.total_duration();
  const Vector initial(net.node_count(), 293.15);

  // Fixed-dt reference at the old service-graph resolution (dt = 5 s scaled
  // by time_scale): 2 Picard passes per step on this linear network.
  const double fixed_dt = 5.0 * 0.02;
  const at::NetworkDrive drive = am::drive_for_network(profile);
  const at::TransientSolution fixed = net.solve_transient(t_end, fixed_dt, initial, drive);
  const std::size_t fixed_steps = fixed.times.size() - 1;

  am::AdaptiveOptions adaptive;
  adaptive.dt_initial = fixed_dt;
  adaptive.dt_max = 12.0;  // let the cruise plateau coarsen freely
  const am::NetworkMissionSolution sol = am::run_network_mission(net, profile, initial, adaptive);

  // Equal accuracy: the adaptive march's horizon state agrees with the
  // fine fixed-dt march within the controller tolerance.
  ASSERT_FALSE(sol.node_temperatures.empty());
  const Vector& adaptive_final = sol.node_temperatures.back();
  const Vector& fixed_final = fixed.temperatures.back();
  for (std::size_t i = 0; i < adaptive_final.size(); ++i)
    EXPECT_NEAR(adaptive_final[i], fixed_final[i], 5.0 * adaptive.tolerance) << "node " << i;

  // Fewer implicit solves: the fixed march spends at least one Picard pass
  // per step, so beating its step count strictly beats its solve count even
  // though the adaptive march pays 2 stepper calls per attempt.
  EXPECT_LT(sol.implicit_solves, fixed_steps)
      << sol.steps_accepted << " accepted / " << sol.steps_rejected << " rejected";
  EXPECT_GT(sol.steps_accepted, 0u);
  // Interior flight-phase boundaries are landed on exactly.
  EXPECT_EQ(sol.phase_transitions, profile.phase_count() - 1);
}

TEST(MissionFidelity, RomMissionTracksFvMission) {
  const ar::CanonicalCase c = ar::seb_box();
  const am::Profile profile = am::Profile::do160_thermal_shock(228.15, 328.15, 40.0, 120.0);
  ar::RomOptions rom_opts;
  rom_opts.transient_samples_per_map = 2;
  rom_opts.transient_time_scale = 10.0;
  const ar::RomModel rom = ar::build_rom(c.model, c.spec, rom_opts);

  // FV reference mission on the ROM-layout model (ports + maps only).
  at::FvModel fv_model = c.model;
  ar::apply_inputs(fv_model, c.spec, seb_base_inputs());
  const am::MissionSolution fv = am::run_fv_mission(fv_model, profile, 293.15);
  const am::MissionSolution reduced =
      am::run_rom_mission(rom, profile, 293.15, seb_base_inputs(), {}, &c.model.grid());

  // Same horizon, same trace shape, kelvin-level agreement on the extremes.
  EXPECT_DOUBLE_EQ(reduced.times.back(), fv.times.back());
  EXPECT_NEAR(reduced.t_max.back(), fv.t_max.back(), 1.0);
  EXPECT_NEAR(reduced.t_min.back(), fv.t_min.back(), 1.0);
  EXPECT_NEAR(reduced.t_mean.back(), fv.t_mean.back(), 1.0);
  EXPECT_EQ(reduced.phase_transitions, fv.phase_transitions);
  EXPECT_EQ(reduced.structure_assemblies, 0u);
  EXPECT_EQ(reduced.final_field.size(), fv.final_field.size());
}

TEST(MissionFidelity, DriveForRomRejectsFilmScalingProfiles) {
  // arinc600_flight scales film coefficients across phases; films are baked
  // into the projected operator, so the ROM drive must refuse.
  EXPECT_THROW(am::drive_for_rom(flight_profile(), seb_base_inputs()), std::invalid_argument);
  // DO-160 keeps h_scale == 1 everywhere: accepted.
  const am::Profile shock = am::Profile::do160_thermal_shock(228.15, 328.15, 40.0, 120.0);
  const ar::RomDrive drive = am::drive_for_rom(shock, seb_base_inputs());
  ASSERT_TRUE(static_cast<bool>(drive.inputs));
  // The drive re-evaluates profile channels: cold start vs hot dwell.
  EXPECT_NEAR(drive.inputs(0.0).sink_temperatures[0], 228.15, 1e-12);
  EXPECT_GT(drive.inputs(shock.total_duration() / 2.0).sink_temperatures[0], 300.0);
}

TEST(MissionFidelity, RomGraphsRegisterAndMatchFvOutputKeys) {
  ac::ScenarioService service;
  am::register_mission_graphs(service);
  EXPECT_TRUE(service.has_graph("mission_rom_do160"));
  EXPECT_TRUE(service.has_graph("mission_rom_eclipse"));

  // One-word fidelity swap: identical spec, graph name switched.
  ac::ScenarioSpec fv_spec;
  fv_spec.name = "shock_fv";
  fv_spec.graph = "mission_seb_do160";
  fv_spec.params["dwell_s"] = 120.0;
  fv_spec.params["ramp_rate"] = 40.0;
  fv_spec.loads["pcb_components"] = 40.0;
  fv_spec.loads["psu"] = 15.0;
  ac::ScenarioSpec rom_spec = fv_spec;
  rom_spec.name = "shock_rom";
  rom_spec.graph = "mission_rom_do160";

  const std::vector<ac::ScenarioResult> results = service.run({fv_spec, rom_spec});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  ASSERT_TRUE(results[1].ok) << results[1].error;
  const auto& fv = results[0].values;
  const auto& rom = results[1].values;
  // The common output keys exist at both fidelities...
  for (const char* key : {"t_final_max", "t_final_min", "t_final_mean", "t_peak_max",
                          "t_low_min", "steps", "step_rejections", "phase_transitions",
                          "sim_seconds"}) {
    ASSERT_TRUE(fv.count(key)) << key;
    ASSERT_TRUE(rom.count(key)) << key;
  }
  // ...and agree physically: same horizon, kelvin-level field extremes.
  EXPECT_DOUBLE_EQ(rom.at("sim_seconds"), fv.at("sim_seconds"));
  EXPECT_DOUBLE_EQ(rom.at("phase_transitions"), fv.at("phase_transitions"));
  EXPECT_NEAR(rom.at("t_final_max"), fv.at("t_final_max"), 1.5);
  EXPECT_NEAR(rom.at("t_peak_max"), fv.at("t_peak_max"), 1.5);
  EXPECT_GT(rom.at("rank"), 0.0);
}

TEST(MissionFidelity, RomGraphSharesOneCompactModelAcrossMissionPoints) {
  ac::ScenarioServiceOptions opts;
  opts.workers = 1;  // serial: the second point must hit the cached ROM
  ac::ScenarioService service(opts);
  am::register_mission_graphs(service);

  ac::ScenarioSpec a;
  a.graph = "mission_rom_do160";
  a.name = "p1";
  a.params["dwell_s"] = 120.0;
  a.params["ramp_rate"] = 40.0;
  a.loads["pcb_components"] = 40.0;
  ac::ScenarioSpec b = a;
  b.name = "p2";
  b.loads["pcb_components"] = 55.0;  // different inputs, same structure

  const std::vector<ac::ScenarioResult> results = service.run({a, b});
  ASSERT_TRUE(results[0].ok && results[1].ok);
  EXPECT_GT(results[1].values.at("t_peak_max"), results[0].values.at("t_peak_max"));
  const ac::ArtifactCacheStats cache = service.cache().stats();
  EXPECT_GE(cache.hits, 1u);   // second mission point reuses the compact model
  EXPECT_LE(cache.misses, 1u);
}
