// Scenario-campaign fidelity swap: the same operating points submitted as
// rom_board_steady specs (compact model) and as specs of a full-order FV
// graph with the same output keys must agree on port temperatures and heat
// flows, and each scenario's isolated counter profile must show which
// fidelity it ran (rom.steady_evals vs. fv.steady_solves) — the swap is a
// one-word change of spec.graph, not a second submission API.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/scenario_service.hpp"
#include "rom/canonical.hpp"
#include "rom/service_graphs.hpp"

namespace ar = aeropack::rom;
namespace ac = aeropack::core;

namespace {

/// Full-order counterpart of rom_board_steady: the Fig. 2 board configured
/// with the spec's port sinks and map powers (same keys, same defaults),
/// solved by FvModel::solve_steady, reported under the same t_/q_ keys.
std::map<std::string, double> fv_board_steady(const ac::ScenarioSpec& spec,
                                              aeropack::ExecutionContext&) {
  ar::CanonicalCase cc = ar::fig2_board();
  ar::RomInputs inputs;
  for (const ar::RomPort& p : cc.spec.ports)
    inputs.sink_temperatures.push_back(ac::value_or(spec.boundaries, p.name, 300.0));
  for (const ar::RomPowerMap& m : cc.spec.maps)
    inputs.map_powers.push_back(ac::value_or(spec.loads, m.name, 0.0));
  ar::apply_inputs(cc.model, cc.spec, inputs);
  const aeropack::thermal::FvSolution sol = cc.model.solve_steady();
  const aeropack::numeric::Vector temps =
      ar::port_surface_temperatures(cc.model, cc.spec, sol.temperatures);
  const aeropack::numeric::Vector flows =
      ar::port_heat_flows(cc.model, cc.spec, inputs, sol.temperatures);
  std::map<std::string, double> out;
  for (std::size_t p = 0; p < cc.spec.ports.size(); ++p) {
    out["t_" + cc.spec.ports[p].name] = temps[p];
    out["q_" + cc.spec.ports[p].name] = flows[p];
  }
  return out;
}

ac::ScenarioSpec sweep_point(const std::string& name, const std::string& graph, double rail_k,
                             double power_w) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = graph;
  spec.boundaries = {{"rail_left", rail_k}, {"rail_right", rail_k + 5.0}, {"top_air", 303.15}};
  spec.loads = {{"cpu", power_w}, {"psu", 0.6 * power_w}};
  return spec;
}

}  // namespace

TEST(RomCampaign, FidelitySwapAgreesAndCountsBothPaths) {
  ac::ScenarioServiceOptions opts;
  opts.workers = 2;
  opts.threads_per_scenario = 1;
  opts.telemetry = true;
  opts.deduplicate = false;
  opts.use_cache = false;
  ac::ScenarioService service(opts);
  ar::register_rom_graphs(service);
  service.register_graph("fv_board_steady", &fv_board_steady);

  const std::vector<ac::ScenarioSpec> specs = {
      sweep_point("p10.compact", "rom_board_steady", 313.15, 10.0),
      sweep_point("p10.full", "fv_board_steady", 313.15, 10.0),
      sweep_point("p25.compact", "rom_board_steady", 318.15, 25.0),
      sweep_point("p25.full", "fv_board_steady", 318.15, 25.0),
  };
  const auto results = service.run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.name << ": " << r.error;

  // Compact and full-order runs of the same point agree at ROM accuracy.
  for (std::size_t pair = 0; pair < 2; ++pair) {
    const auto& compact = results[2 * pair];
    const auto& full = results[2 * pair + 1];
    for (const auto& [key, value] : full.values) {
      if (key.rfind("t_", 0) != 0) continue;
      EXPECT_NEAR(compact.values.at(key), value, 0.05) << compact.name << " " << key;
    }
    // Heat flows agree to a fraction of the dissipated power.
    for (const auto& [key, value] : full.values) {
      if (key.rfind("q_", 0) != 0) continue;
      EXPECT_NEAR(compact.values.at(key), value, 0.2) << compact.name << " " << key;
    }
  }

  // Isolated per-scenario counters prove which path each scenario took.
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const bool full = specs[i].graph == "fv_board_steady";
    const auto rom_evals = r.counters.find("rom.steady_evals");
    const auto fv_solves = r.counters.find("fv.steady_solves");
    if (full) {
      ASSERT_NE(fv_solves, r.counters.end()) << r.name;
      EXPECT_GE(fv_solves->second, 1u) << r.name;
      EXPECT_TRUE(rom_evals == r.counters.end() || rom_evals->second == 0u) << r.name;
    } else {
      ASSERT_NE(rom_evals, r.counters.end()) << r.name;
      EXPECT_EQ(rom_evals->second, 1u) << r.name;
      EXPECT_TRUE(fv_solves == r.counters.end() || fv_solves->second == 0u) << r.name;
    }
  }
}
