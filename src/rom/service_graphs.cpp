#include "rom/service_graphs.hpp"

#include <map>
#include <stdexcept>
#include <string>

#include "core/scenario_service.hpp"
#include "rom/cache.hpp"
#include "rom/canonical.hpp"

namespace aeropack::rom {

namespace {

using core::count_or;
using core::kelvin_or;
using core::value_or;

// One steady evaluation of a canonical compact model: the RomModel comes
// from the artifact cache (built on the first scenario that needs this
// structure), the spec's loads/boundaries become the reduced system's
// input vector. Everything downstream of the lookup is const on shared
// data — safe from any number of workers at once.
std::map<std::string, double> rom_steady(CanonicalCase (*make_case)(),
                                         const core::ScenarioSpec& scenario,
                                         aeropack::ExecutionContext& ctx) {
  const CanonicalCase cc = make_case();
  RomOptions opts;
  const std::size_t rank = count_or(scenario.params, "rank", 0);  // 0 = automatic
  if (rank > 0) opts.rank = rank;

  const std::shared_ptr<const RomModel> model =
      get_or_build_rom(ctx.artifact_cache(), cc.model, cc.spec, opts);

  RomInputs inputs;
  inputs.sink_temperatures.reserve(cc.spec.ports.size());
  for (const RomPort& p : cc.spec.ports)
    inputs.sink_temperatures.push_back(kelvin_or(scenario.boundaries, p.name, 300.0));
  inputs.map_powers.reserve(cc.spec.maps.size());
  for (const RomPowerMap& m : cc.spec.maps)
    inputs.map_powers.push_back(value_or(scenario.loads, m.name, 0.0));

  const RomSteadyResult res = model->steady(inputs);
  std::map<std::string, double> out;
  for (std::size_t p = 0; p < model->port_count(); ++p) {
    out["t_" + model->port_name(p)] = res.port_temperatures[p];
    out["q_" + model->port_name(p)] = res.port_heat_flows[p];
  }
  out["error_estimate"] = model->error_estimate();
  out["rank"] = static_cast<double>(model->rank());
  return out;
}

}  // namespace

void register_rom_graphs(core::ScenarioService& service) {
  service.register_graph("rom_board_steady",
                         [](const core::ScenarioSpec& spec, aeropack::ExecutionContext& ctx) {
                           return rom_steady(&fig2_board, spec, ctx);
                         });
  service.register_graph("rom_seb_steady",
                         [](const core::ScenarioSpec& spec, aeropack::ExecutionContext& ctx) {
                           return rom_steady(&seb_box, spec, ctx);
                         });
}

}  // namespace aeropack::rom
