// Bitwise FV golden: every finite-volume solve family whose operator is the
// 7-point conduction stencil, frozen to the last bit. The value goldens of
// the regression suite compare at 1e-9; this file compares at 0 (exact up
// to the recorder's 1e-12 absolute floor) and, because a 1e-12 floor still
// hides a few ulps at 300 K, also records a StructuralHasher digest of each
// full final field. A digest is split into two 32-bit halves so that each
// half round-trips exactly through a JSON double.
//
// Cases: the two FV mission graphs through ScenarioService (DO-160 shock
// and CubeSat eclipse on the SEB box), the default fv_slab_steady graph, a
// 32^3 multigrid slab, the nonlinear Picard box at n = 36 (multigrid, since
// it is above the crossover) and the SEB box's linearize_steady() system.
// Every value is asserted at 1, 2 and 8 threads with fan-out forced, so the
// parallel kernels run their partitioned paths even on these small grids.
//
// Regenerate only for an intended numerical change:
//   AEROPACK_UPDATE_GOLDEN=1 ctest -L verify -R FvBitwise
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scenario_service.hpp"
#include "exec/context.hpp"
#include "mission/profile.hpp"
#include "mission/service_graphs.hpp"
#include "mission/transient.hpp"
#include "numeric/grain.hpp"
#include "numeric/hashing.hpp"
#include "rom/canonical.hpp"
#include "thermal/fv.hpp"
#include "verify/cross_check.hpp"
#include "verify/golden.hpp"
#include "verify/solver_cases.hpp"

namespace ac = aeropack::core;
namespace am = aeropack::mission;
namespace an = aeropack::numeric;
namespace ar = aeropack::rom;
namespace at = aeropack::thermal;
namespace av = aeropack::verify;

namespace {

using Values = std::map<std::string, double>;

void record_digest(Values& out, const std::string& key, std::uint64_t digest) {
  out[key + ".digest_hi"] = static_cast<double>(digest >> 32);
  out[key + ".digest_lo"] = static_cast<double>(digest & 0xffffffffull);
}

void record_field(Values& out, const std::string& key, const an::Vector& field) {
  an::StructuralHasher h;
  h.add(field);
  record_digest(out, key, h.value());
}

/// The SEB box as the FV mission graphs build it with default loads: port
/// films at the profile's first sink temperature, 40 W + 15 W.
at::FvModel seb_mission_model(double t_sink0) {
  ar::CanonicalCase cc = ar::seb_box();
  ar::RomInputs inputs;
  inputs.sink_temperatures.assign(cc.spec.ports.size(), t_sink0);
  for (const ar::RomPowerMap& m : cc.spec.maps)
    inputs.map_powers.push_back(m.name == "pcb_components" ? 40.0 : 15.0);
  ar::apply_inputs(cc.model, cc.spec, inputs);
  return std::move(cc.model);
}

/// One FV mission graph with default parameters through the service, plus
/// the same march run directly for its final field. The two must agree.
void record_mission(Values& out, std::size_t threads, const std::string& graph,
                    const am::Profile& profile, double t_sink0) {
  ac::ScenarioServiceOptions so;
  so.threads_per_scenario = threads;
  ac::ScenarioService service(so);
  am::register_mission_graphs(service);
  ac::ScenarioSpec spec;
  spec.name = graph;
  spec.graph = graph;
  const ac::ScenarioResult res = service.wait(service.submit(spec));
  ASSERT_TRUE(res.ok) << graph << ": " << res.error;
  for (const char* key : {"steps", "step_rejections", "linear_iterations", "t_final_max",
                          "t_final_min", "t_final_mean", "t_peak_max", "t_low_min"}) {
    ASSERT_EQ(res.values.count(key), 1u) << graph << ": no " << key;
    out[graph + "." + key] = res.values.at(key);
  }

  aeropack::ExecutionContext ctx(aeropack::ExecutionConfig{threads, false});
  const aeropack::ExecutionContext::Use bind(ctx);
  const am::MissionSolution sol = am::run_fv_mission(seb_mission_model(t_sink0), profile, 293.15);
  EXPECT_EQ(static_cast<double>(sol.linear_iterations), res.values.at("linear_iterations"))
      << graph;
  EXPECT_EQ(sol.t_max.back(), res.values.at("t_final_max")) << graph;
  record_field(out, graph + ".final_field", sol.final_field);
}

void record_steady(Values& out, const std::string& key, const at::FvSolution& sol) {
  out[key + ".picard_iterations"] = static_cast<double>(sol.picard_iterations);
  out[key + ".linear_iterations"] = static_cast<double>(sol.linear_iterations);
  out[key + ".t_max"] = sol.max_temperature;
  out[key + ".t_min"] = sol.min_temperature;
  out[key + ".energy_residual"] = sol.energy_residual;
  record_field(out, key + ".field", sol.temperatures);
}

Values run_all(std::size_t threads) {
  Values out;
  record_mission(out, threads, "mission_seb_do160",
                 am::Profile::do160_thermal_shock(228.15, 328.15, 5.0, 1800.0), 228.15);
  record_mission(out, threads, "mission_seb_eclipse",
                 am::Profile::cubesat_eclipse(2, 600.0, 0.35, 313.15, 213.15, 0.6), 313.15);

  {
    ac::ScenarioServiceOptions so;
    so.threads_per_scenario = threads;
    ac::ScenarioService service(so);
    ac::ScenarioSpec spec;
    spec.name = "fv_slab_steady";
    spec.graph = "fv_slab_steady";
    const ac::ScenarioResult res = service.wait(service.submit(spec));
    EXPECT_TRUE(res.ok) << res.error;
    for (const auto& [key, value] : res.values) out["fv_slab_steady." + key] = value;
  }

  aeropack::ExecutionContext ctx(aeropack::ExecutionConfig{threads, false});
  const aeropack::ExecutionContext::Use bind(ctx);
  record_steady(out, "amg_slab_32", av::amg_slab_case(32).solve_steady());
  record_steady(out, "nonlinear_box_36", av::nonlinear_box_model(36).solve_steady());

  const at::LinearSteadySystem sys = ar::seb_box().model.linearize_steady();
  out["seb_linear.nonzeros"] = static_cast<double>(sys.matrix.nonzeros());
  record_digest(out, "seb_linear.matrix", an::hash_csr(sys.matrix));
  record_field(out, "seb_linear.rhs", sys.rhs);
  return out;
}

}  // namespace

TEST(FvBitwise, EveryFvSolveFamilyMatchesItsRecordedBits) {
  const an::grain::ScopedForceFanOut force;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    av::GoldenRecorder rec("fv_operator_bitwise", AEROPACK_GOLDEN_DIR);
    for (const auto& [key, value] : run_all(threads)) rec.record(key, value);
    std::string joined;
    for (const auto& line : rec.finish(0.0)) joined += "\n  " + line;
    EXPECT_TRUE(joined.empty()) << threads << " threads, " << rec.path() << ":" << joined;
  }
}
