#include "mission/service_graphs.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "core/artifact_cache.hpp"
#include "core/scenario_service.hpp"
#include "mission/profile.hpp"
#include "mission/transient.hpp"
#include "rom/cache.hpp"
#include "rom/canonical.hpp"
#include "thermal/network.hpp"

namespace aeropack::mission {

namespace {

namespace at = aeropack::thermal;
using core::count_or;
using core::kelvin_or;
using core::value_or;

/// A mission profile read from a spec, and the sink temperature its march
/// starts from.
struct SpecProfile {
  Profile profile;
  double t_sink0;
};

/// DO-160 thermal shock between t_cold and t_hot; the march starts cold.
SpecProfile do160_profile(const core::ScenarioSpec& spec) {
  const double t_cold = kelvin_or(spec.boundaries, "t_cold", 228.15);
  const double t_hot = kelvin_or(spec.boundaries, "t_hot", 328.15);
  return {Profile::do160_thermal_shock(t_cold, t_hot, value_or(spec.params, "ramp_rate", 5.0),
                                       value_or(spec.params, "dwell_s", 1800.0)),
          t_cold};
}

/// CubeSat orbital eclipse square wave; the march starts sunlit.
SpecProfile eclipse_profile(const core::ScenarioSpec& spec) {
  const double t_sunlit = kelvin_or(spec.boundaries, "t_sunlit", 313.15);
  const double t_eclipse = kelvin_or(spec.boundaries, "t_eclipse", 213.15);
  return {Profile::cubesat_eclipse(
              count_or(spec.params, "orbits", 2), value_or(spec.params, "period_s", 600.0),
              value_or(spec.params, "eclipse_fraction", 0.35), t_sunlit, t_eclipse,
              value_or(spec.params, "eclipse_power_scale", 0.6)),
          t_sunlit};
}

/// Inputs of the canonical SEB box `cc`: every port sink at t_sink0 and
/// each power map's load from spec.loads (pcb_components 40 W, others 15 W).
rom::RomInputs seb_inputs(const core::ScenarioSpec& spec, const rom::CanonicalCase& cc,
                          double t_sink0) {
  rom::RomInputs inputs;
  inputs.sink_temperatures.assign(cc.spec.ports.size(), t_sink0);
  inputs.map_powers.reserve(cc.spec.maps.size());
  for (const rom::RomPowerMap& m : cc.spec.maps) {
    const double fallback = m.name == "pcb_components" ? 40.0 : 15.0;
    inputs.map_powers.push_back(value_or(spec.loads, m.name, fallback));
  }
  return inputs;
}

/// The controller knobs every mission graph reads: tolerance and dt_max.
AdaptiveOptions adaptive_options(const core::ScenarioSpec& spec) {
  AdaptiveOptions adaptive;
  adaptive.tolerance = value_or(spec.params, "tolerance", adaptive.tolerance);
  adaptive.dt_max = value_or(spec.params, "dt_max", adaptive.dt_max);
  return adaptive;
}

/// The outputs the FV and ROM graphs share: field statistics at the
/// horizon and over the whole trace, step counts and the simulated span.
std::map<std::string, double> field_outputs(const MissionSolution& sol,
                                            const Profile& profile) {
  return {{"t_final_max", sol.t_max.back()},
          {"t_final_min", sol.t_min.back()},
          {"t_final_mean", sol.t_mean.back()},
          {"t_peak_max", *std::max_element(sol.t_max.begin(), sol.t_max.end())},
          {"t_low_min", *std::min_element(sol.t_min.begin(), sol.t_min.end())},
          {"steps", static_cast<double>(sol.steps_accepted)},
          {"step_rejections", static_cast<double>(sol.steps_rejected)},
          {"phase_transitions", static_cast<double>(sol.phase_transitions)},
          {"sim_seconds", profile.total_duration()}};
}

/// Adaptive FV march of the canonical SEB box, configured from the spec's
/// loads with port films in place (the drive supplies the per-step sink
/// temperatures), through the profile read from the spec. The
/// assembly is shared through the scenario service's ArtifactCache when one
/// is attached. The cache key is the *steady* structural hash — the exact
/// key steady solves of the same structure use, which is the cross-campaign
/// hit class the mission bench gates on. The service has already bound
/// `ctx`, so the march runs unpinned.
std::map<std::string, double> fv_mission_graph(const SpecProfile& mission,
                                               const core::ScenarioSpec& spec,
                                               aeropack::ExecutionContext& ctx) {
  rom::CanonicalCase cc = rom::seb_box();
  rom::apply_inputs(cc.model, cc.spec, seb_inputs(spec, cc, mission.t_sink0));
  const at::FvModel& model = cc.model;
  const AdaptiveOptions adaptive = adaptive_options(spec);
  const double t_initial = kelvin_or(spec.params, "t_initial", 293.15);

  const at::FvOptions fv_opts;
  std::shared_ptr<const at::FvAssembly> assembly;
  if (core::ArtifactCache* cache = ctx.artifact_cache()) {
    assembly = cache->get_or_build<at::FvAssembly>(
        model.structural_hash(fv_opts),
        [&] { return model.build_assembly(fv_opts); },
        [](const at::FvAssembly& a) { return a.cost_bytes(); });
  }
  const MissionSolution sol =
      run_fv_mission(model, mission.profile, t_initial, adaptive, fv_opts, assembly);

  std::map<std::string, double> out = field_outputs(sol, mission.profile);
  out["linear_iterations"] = static_cast<double>(sol.linear_iterations);
  out["structure_assemblies"] = static_cast<double>(sol.structure_assemblies);
  return out;
}

/// The same campaign at reduced-order fidelity: the canonical SEB box is
/// reduced once per structure through rom::get_or_build_rom — the same
/// rom_key the rom steady graphs use, so a mixed campaign shares one
/// compact model — and every mission point marches the reduced coordinates
/// through the profile with the same adaptive controller (and the same
/// output keys) as the FV graphs.
std::map<std::string, double> rom_mission_graph(const SpecProfile& mission,
                                                const core::ScenarioSpec& spec,
                                                aeropack::ExecutionContext& ctx) {
  rom::CanonicalCase cc = rom::seb_box();
  rom::RomOptions rom_opts;
  const std::size_t rank = count_or(spec.params, "rank", 0);  // 0 = automatic
  if (rank > 0) rom_opts.rank = rank;
  const std::shared_ptr<const rom::RomModel> model =
      rom::get_or_build_rom(ctx.artifact_cache(), cc.model, cc.spec, rom_opts);
  const rom::RomInputs base = seb_inputs(spec, cc, mission.t_sink0);
  const AdaptiveOptions adaptive = adaptive_options(spec);
  const double t_initial = kelvin_or(spec.params, "t_initial", 293.15);

  const MissionSolution sol =
      run_rom_mission(model, mission.profile, t_initial, base, adaptive, &cc.model.grid());

  std::map<std::string, double> out = field_outputs(sol, mission.profile);
  out["rank"] = static_cast<double>(model->rank());
  return out;
}

std::map<std::string, double> mission_seb_do160(const core::ScenarioSpec& spec,
                                                aeropack::ExecutionContext& ctx) {
  return fv_mission_graph(do160_profile(spec), spec, ctx);
}

std::map<std::string, double> mission_seb_eclipse(const core::ScenarioSpec& spec,
                                                  aeropack::ExecutionContext& ctx) {
  return fv_mission_graph(eclipse_profile(spec), spec, ctx);
}

std::map<std::string, double> mission_rom_do160(const core::ScenarioSpec& spec,
                                                aeropack::ExecutionContext& ctx) {
  return rom_mission_graph(do160_profile(spec), spec, ctx);
}

std::map<std::string, double> mission_rom_eclipse(const core::ScenarioSpec& spec,
                                                  aeropack::ExecutionContext& ctx) {
  return rom_mission_graph(eclipse_profile(spec), spec, ctx);
}

// Two-node equipment/chassis lumped network under the ARINC 600 flight
// envelope: the Level-1 sizing view of the same integration problem the FV
// graphs resolve in 3-D (paper Fig. 4's resistive-network abstraction).
// Marched by the same adaptive controller as the FV graphs through the
// unified engine — long cruise plateaus coarsen to dt_max while the
// takeoff/descent ramps resolve finely, so the campaign spends far fewer
// implicit solves than the old fixed-dt march at the same tolerance.
std::map<std::string, double> mission_network_flight(const core::ScenarioSpec& spec,
                                                     aeropack::ExecutionContext&) {
  const double t_ground = kelvin_or(spec.boundaries, "t_ground", 328.15);
  const double t_cruise = kelvin_or(spec.boundaries, "t_cruise", 243.15);
  const double time_scale = value_or(spec.params, "time_scale", 0.05);
  const Profile profile = Profile::arinc600_flight(t_ground, t_cruise, time_scale);

  at::ThermalNetwork net;
  const at::NodeId equipment = net.add_node("equipment", 8000.0);
  const at::NodeId chassis = net.add_node("chassis", 15000.0);
  const at::NodeId ambient = net.add_boundary("ambient", t_ground);
  net.add_conductor(equipment, chassis, 2.5);
  net.add_conductor(chassis, ambient, 4.0);
  net.add_heat_load(equipment, value_or(spec.loads, "equipment", 120.0));

  const double t_initial = kelvin_or(spec.params, "t_initial", 293.15);
  // Steps are in profile time, which time_scale compresses.
  AdaptiveOptions adaptive = adaptive_options(spec);
  adaptive.dt_initial = value_or(spec.params, "dt", 5.0) * time_scale;
  adaptive.dt_max *= time_scale;
  numeric::Vector initial(net.node_count(), t_initial);
  const NetworkMissionSolution sol = run_network_mission(net, profile, initial, adaptive);

  double peak = sol.node_temperatures.front()[equipment];
  for (const numeric::Vector& row : sol.node_temperatures)
    peak = std::max(peak, row[equipment]);
  return {{"t_equipment", sol.node_temperatures.back()[equipment]},
          {"t_chassis", sol.node_temperatures.back()[chassis]},
          {"t_equipment_peak", peak},
          {"steps", static_cast<double>(sol.steps_accepted)},
          {"step_rejections", static_cast<double>(sol.steps_rejected)},
          {"phase_transitions", static_cast<double>(sol.phase_transitions)},
          {"implicit_solves", static_cast<double>(sol.implicit_solves)},
          {"sim_seconds", profile.total_duration()}};
}

}  // namespace

void register_mission_graphs(core::ScenarioService& service) {
  service.register_graph("mission_seb_do160", &mission_seb_do160);
  service.register_graph("mission_seb_eclipse", &mission_seb_eclipse);
  service.register_graph("mission_network_flight", &mission_network_flight);
  service.register_graph("mission_rom_do160", &mission_rom_do160);
  service.register_graph("mission_rom_eclipse", &mission_rom_eclipse);
}

}  // namespace aeropack::mission
