// BENCH-MISSION — mission-profile transient campaigns through the scenario
// service.
//
// The qualification story of the paper is not one operating point but a
// campaign: DO-160 thermal-shock cycles and orbital eclipse waves swept
// across power cases, all on the same equipment structure. This bench runs
// both mission families end-to-end through core::ScenarioService and gates
// the properties the mission tier promises:
//  - every mission point of the SEB box reuses ONE cached steady FvAssembly
//    (the same artifact class steady solves key), so the campaign's
//    structure cost is O(1), not O(points);
//  - campaign outputs are bitwise identical across service worker counts
//    (1 vs 4) — the adaptive controller is deterministic;
//  - the adaptive march stays decisively cheaper than the fixed-dt march a
//    naive driver would use (implicit solves compared at equal accuracy
//    targets);
//  - the ROM-fidelity mission points (mission_rom_*) share ONE cached
//    compact model across the campaign and the reduced march beats the FV
//    march of the same profile by >= 10x wall clock — the fidelity-swap
//    payoff the unified transient engine exists to deliver.
//
// --smoke runs the reduced campaign for the CI bench-smoke job; the
// deterministic mission.* / fv.* / svc counters land in the --report JSON
// and are gated against bench/expected/bench_mission.expected.json. The
// wall-clock counter mission.wallclock.elapsed_us is deliberately excluded
// from the expectation file (tools/check_report.py skips the
// mission.wallclock. prefix at --update time).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "core/scenario_service.hpp"
#include "exec/context.hpp"
#include "mission/profile.hpp"
#include "mission/service_graphs.hpp"
#include "mission/transient.hpp"
#include "numeric/parallel.hpp"
#include "obs/report.hpp"
#include "rom/canonical.hpp"
#include "thermal/fv.hpp"

namespace ac = aeropack::core;
namespace am = aeropack::mission;
namespace an = aeropack::numeric;
namespace ar = aeropack::rom;
namespace at = aeropack::thermal;
namespace obs = aeropack::obs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::vector<ac::ScenarioSpec> build_campaign(std::size_t power_cases) {
  std::vector<ac::ScenarioSpec> specs;
  for (std::size_t i = 0; i < power_cases; ++i) {
    ac::ScenarioSpec shock;
    shock.name = "do160_p" + std::to_string(i);
    shock.graph = "mission_seb_do160";
    shock.params["dwell_s"] = 240.0;
    shock.params["ramp_rate"] = 25.0;
    shock.loads["pcb_components"] = 30.0 + 10.0 * static_cast<double>(i);
    shock.loads["psu"] = 15.0;
    specs.push_back(shock);

    ac::ScenarioSpec orbit;
    orbit.name = "eclipse_p" + std::to_string(i);
    orbit.graph = "mission_seb_eclipse";
    orbit.params["orbits"] = 2.0;
    orbit.params["period_s"] = 600.0;
    orbit.loads["pcb_components"] = 30.0 + 10.0 * static_cast<double>(i);
    orbit.loads["psu"] = 10.0;
    specs.push_back(orbit);
  }
  // The same mission points at reduced-order fidelity: identical spec
  // shape, graph name swapped. All of them march one cached compact model.
  for (std::size_t i = 0; i < power_cases; ++i) {
    ac::ScenarioSpec rom_shock;
    rom_shock.name = "rom_do160_p" + std::to_string(i);
    rom_shock.graph = "mission_rom_do160";
    rom_shock.params["dwell_s"] = 240.0;
    rom_shock.params["ramp_rate"] = 25.0;
    rom_shock.loads["pcb_components"] = 30.0 + 10.0 * static_cast<double>(i);
    rom_shock.loads["psu"] = 15.0;
    specs.push_back(rom_shock);

    ac::ScenarioSpec rom_orbit;
    rom_orbit.name = "rom_eclipse_p" + std::to_string(i);
    rom_orbit.graph = "mission_rom_eclipse";
    rom_orbit.params["orbits"] = 2.0;
    rom_orbit.params["period_s"] = 600.0;
    rom_orbit.loads["pcb_components"] = 30.0 + 10.0 * static_cast<double>(i);
    rom_orbit.loads["psu"] = 10.0;
    specs.push_back(rom_orbit);
  }
  ac::ScenarioSpec flight;
  flight.name = "arinc_flight";
  flight.graph = "mission_network_flight";
  flight.params["time_scale"] = 0.02;
  specs.push_back(flight);
  return specs;
}

struct CampaignRun {
  std::vector<ac::ScenarioResult> results;
  ac::ArtifactCacheStats cache;
  double seconds = 0.0;
};

CampaignRun run_campaign(const std::vector<ac::ScenarioSpec>& specs, std::size_t workers,
                         bool telemetry) {
  ac::ScenarioServiceOptions opts;
  opts.workers = workers;
  opts.telemetry = telemetry;
  ac::ScenarioService service(opts);
  am::register_mission_graphs(service);
  const auto t0 = std::chrono::steady_clock::now();
  CampaignRun run;
  run.results = service.run(specs);
  run.seconds = seconds_since(t0);
  run.cache = service.cache().stats();
  return run;
}

/// Adaptive-vs-fixed economy on one DO-160 shock of the SEB box: implicit
/// solves each march spends to cover the mission at the same accuracy class.
struct EconomyPoint {
  std::size_t adaptive_solves = 0;
  std::size_t fixed_steps = 0;
  double ratio = 0.0;
};

EconomyPoint adaptive_economy() {
  ar::CanonicalCase cc = ar::seb_box();
  ar::RomInputs inputs;
  inputs.sink_temperatures.assign(cc.spec.ports.size(), 228.15);
  inputs.map_powers = {40.0, 15.0};
  ar::apply_inputs(cc.model, cc.spec, inputs);
  const am::Profile profile = am::Profile::do160_thermal_shock(228.15, 328.15, 25.0, 240.0);

  am::AdaptiveOptions adaptive;
  adaptive.tolerance = 0.05;
  // Its own registry with telemetry on: the stepper counts every implicit
  // solve, rejected attempts included, whether or not --report is set.
  aeropack::ExecutionContext ctx(aeropack::ExecutionConfig{1, true});
  (void)am::run_fv_mission(ctx, cc.model, profile, 293.15, adaptive);

  EconomyPoint point;
  point.adaptive_solves = ctx.metrics().counters().at("fv.transient_steps");
  // The fixed-dt march that reaches the same accuracy class: first-order
  // implicit Euler needs dt comparable to the smallest step the controller
  // was forced to (the ramps bound the error budget globally).
  const double dt_fixed = 2.0;
  point.fixed_steps = static_cast<std::size_t>(profile.total_duration() / dt_fixed);
  point.ratio = static_cast<double>(point.fixed_steps) /
                static_cast<double>(point.adaptive_solves > 0 ? point.adaptive_solves : 1);
  return point;
}

/// ROM-vs-FV march economy on one DO-160 shock: the identical profile and
/// controller driven through thermal::FvTransientStepper and
/// rom::RomTransientStepper (compact-model build excluded — campaigns
/// amortize it through the artifact cache, which Gate 1b verifies).
struct RomFidelityPoint {
  double fv_seconds = 0.0;
  double rom_seconds = 0.0;
  double speedup = 0.0;
  std::size_t fv_steps = 0;
  std::size_t rom_steps = 0;
};

RomFidelityPoint rom_fidelity_economy() {
  const ar::CanonicalCase cc = ar::seb_box();
  ar::RomInputs inputs;
  inputs.sink_temperatures.assign(cc.spec.ports.size(), 228.15);
  inputs.map_powers = {40.0, 15.0};
  const am::Profile profile = am::Profile::do160_thermal_shock(228.15, 328.15, 25.0, 240.0);
  const ar::RomModel rom = ar::build_rom(cc.model, cc.spec, {});

  at::FvModel fv_model = cc.model;
  ar::apply_inputs(fv_model, cc.spec, inputs);

  RomFidelityPoint point;
  {
    const auto t0 = std::chrono::steady_clock::now();
    const am::MissionSolution sol = am::run_fv_mission(fv_model, profile, 293.15);
    point.fv_seconds = seconds_since(t0);
    point.fv_steps = sol.steps_accepted;
  }
  // Best of three reduced marches: the march is sub-millisecond, so one
  // scheduler hiccup would otherwise dominate the measurement.
  point.rom_seconds = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const am::MissionSolution sol =
        am::run_rom_mission(rom, profile, 293.15, inputs, {}, &cc.model.grid());
    point.rom_seconds = std::min(point.rom_seconds, seconds_since(t0));
    point.rom_steps = sol.steps_accepted;
  }
  point.speedup = point.fv_seconds / (point.rom_seconds > 0.0 ? point.rom_seconds : 1e-30);
  return point;
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(std::string("--report=").size());
    } else {
      std::fprintf(stderr, "unknown argument: %s (supported: --smoke, --report <out.json>)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (!report_path.empty()) obs::enable();

  std::printf("\n================================================================\n");
  std::printf("BENCH-MISSION — flight/orbital transient campaigns via the\n");
  std::printf("scenario service: shared assemblies, deterministic adaptivity\n");
  std::printf("================================================================\n");
  if (smoke) std::printf("  smoke mode: reduced campaign\n");

  const std::size_t power_cases = smoke ? 2 : 6;
  const std::vector<ac::ScenarioSpec> specs = build_campaign(power_cases);
  const std::size_t fv_points = 2 * power_cases;   // do160 + eclipse per case
  const std::size_t rom_points = 2 * power_cases;  // rom_do160 + rom_eclipse per case

  // Reference pass: one worker, telemetry on (per-scenario counters feed
  // the report and the gates below).
  const CampaignRun ref = run_campaign(specs, 1, true);
  // Parallel pass: the determinism gate.
  const CampaignRun par = run_campaign(specs, 4, false);

  bool ok = true;
  std::printf("\n  %-14s | %6s | %7s | %6s | %10s | %10s\n", "scenario", "steps", "rejects",
              "phase", "t_peak [K]", "t_end [K]");
  std::printf("  ---------------+--------+---------+--------+------------+-----------\n");
  for (const ac::ScenarioResult& r : ref.results) {
    if (!r.ok) {
      std::fprintf(stderr, "FAIL: %s: %s\n", r.name.c_str(), r.error.c_str());
      ok = false;
      continue;
    }
    const bool field_graph = r.values.count("t_peak_max") > 0;
    std::printf("  %-14s | %6.0f | %7.0f | %6.0f | %10.2f | %10.2f\n", r.name.c_str(),
                r.values.at("steps"), r.values.at("step_rejections"),
                r.values.at("phase_transitions"),
                field_graph ? r.values.at("t_peak_max") : r.values.at("t_equipment_peak"),
                field_graph ? r.values.at("t_final_max") : r.values.at("t_equipment"));
  }

  // Gate 1: one shared steady assembly serves every FV mission point and
  // one shared compact model serves every ROM mission point. The first
  // point of each artifact class builds (two misses in total); every other
  // point hits the cache.
  if (ref.cache.hits + 2 < fv_points + rom_points || ref.cache.misses != 2) {
    std::fprintf(stderr,
                 "FAIL: campaign artifact sharing: %llu hits / %llu misses over %zu FV + %zu ROM"
                 " points (want %zu hits, 2 misses)\n",
                 static_cast<unsigned long long>(ref.cache.hits),
                 static_cast<unsigned long long>(ref.cache.misses), fv_points, rom_points,
                 fv_points + rom_points - 2);
    ok = false;
  }

  // Gate 2: bitwise-identical campaign outputs across worker counts.
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    if (!par.results[i].ok || par.results[i].values != ref.results[i].values) {
      std::fprintf(stderr, "FAIL: %s differs between 1 and 4 service workers\n",
                   ref.results[i].name.c_str());
      ok = false;
    }
  }

  // Gate 3: the adaptive march undercuts the equal-accuracy fixed-dt march.
  const EconomyPoint economy = adaptive_economy();
  if (economy.ratio < 2.0) {
    std::fprintf(stderr, "FAIL: adaptive economy %.2fx < 2x bar (%zu solves vs %zu steps)\n",
                 economy.ratio, economy.adaptive_solves, economy.fixed_steps);
    ok = false;
  }

  // Gate 4: the reduced march of the same profile beats the FV march by
  // >= 10x wall clock (compact-model build amortized by the cache above).
  const RomFidelityPoint rom_economy = rom_fidelity_economy();
  if (rom_economy.speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: ROM fidelity speedup %.1fx < 10x bar (FV %.4fs / ROM %.4fs)\n",
                 rom_economy.speedup, rom_economy.fv_seconds, rom_economy.rom_seconds);
    ok = false;
  }

  std::printf("\n  campaign: %zu points, %.2fs @1 worker, %.2fs @4 workers\n", specs.size(),
              ref.seconds, par.seconds);
  std::printf("  assembly cache: %llu hits / %llu misses (one build serves the campaign)\n",
              static_cast<unsigned long long>(ref.cache.hits),
              static_cast<unsigned long long>(ref.cache.misses));
  std::printf("  adaptive economy: %zu implicit solves vs %zu fixed-dt steps (%.1fx)\n",
              economy.adaptive_solves, economy.fixed_steps, economy.ratio);
  std::printf("  rom fidelity: FV march %.4fs (%zu steps) vs ROM march %.4fs (%zu steps)"
              " — %.0fx\n",
              rom_economy.fv_seconds, rom_economy.fv_steps, rom_economy.rom_seconds,
              rom_economy.rom_steps, rom_economy.speedup);

  if (!report_path.empty()) {
    obs::Report report = obs::Report::capture("bench_mission", an::thread_count());
    report.set_meta("smoke", smoke ? 1.0 : 0.0);
    report.set_meta("campaign.points", static_cast<double>(specs.size()));
    report.set_meta("campaign.seconds_1w", ref.seconds);
    report.set_meta("campaign.seconds_4w", par.seconds);
    report.set_meta("economy.ratio", economy.ratio);
    report.set_meta("rom.speedup", rom_economy.speedup);
    report.set_meta("rom.fv_seconds", rom_economy.fv_seconds);
    report.set_meta("rom.rom_seconds", rom_economy.rom_seconds);
    for (const ac::ScenarioResult& r : ref.results) report.add_counters(r.name, r.counters);
    report.add_counters("svc", {{"cache.hits", ref.cache.hits},
                                {"cache.misses", ref.cache.misses},
                                {"cache.insertions", ref.cache.insertions}});
    report.write(report_path);
    std::printf("  run report written to %s\n", report_path.c_str());
  }

  if (ok)
    std::printf("\n  headline: %zu-point mission campaign on one cached assembly,"
                " bitwise stable across workers\n\n",
                specs.size());
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench failed: %s\n", e.what());
  return 1;
} catch (...) {
  std::fprintf(stderr, "bench failed: unknown exception\n");
  return 1;
}
