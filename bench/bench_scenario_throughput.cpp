// BENCH-SCENARIO — co-design batch throughput on isolated ExecutionContexts.
//
// The paper's co-design loop (Fig. 1) evaluates thermal and mechanical
// models against one specification; a trade study multiplies that into a
// batch of independent what-if scenarios. This bench drives a mixed batch —
// an SEB power sweep (Fig. 10), modal placement variants of the Fig. 2
// avionics board, and FV slab heat-load variants — through
// core::ScenarioService with dedup and the artifact cache off, sweeping the
// worker count and recording scenarios/sec. Every scenario runs on its own
// ExecutionContext, so the numbers also demonstrate the isolation contract:
// per-scenario counters come back deterministic and identical at every
// worker count.
//
// --smoke freezes a reduced batch at workers {1, 2} for the CI bench-smoke
// job; the per-scenario counters land in the obs report under
// "<scenario>.<counter>" keys and are gated against bench/expected/.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/qualification.hpp"
#include "core/scenario_service.hpp"
#include "core/seb.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/parallel.hpp"
#include "obs/report.hpp"
#include "rom/service_graphs.hpp"
#include "thermal/fv.hpp"

namespace ac = aeropack::core;
namespace an = aeropack::numeric;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;
namespace af = aeropack::fem;
namespace obs = aeropack::obs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---- worker sweep: bench-local graphs, plain batch semantics -----------
//
// Four graphs registered on the sweep services only, so the sweep keeps its
// own solver paths and its frozen per-scenario counters: modal_scenario
// runs PlateModel::solve_modal (the built-in modal_plate graph goes through
// factorize_modal, which bumps fem.modal_factorizations), and qual_scenario
// runs a whole qualification campaign, which no built-in graph does.

/// SEB operating point at one sweep power (Fig. 10 ordinate, LHP chain).
///   loads: power_w; params: tilt_deg
std::map<std::string, double> seb_scenario(const ac::ScenarioSpec& spec,
                                           aeropack::ExecutionContext&) {
  const ac::SebModel seb{ac::SebDesign{}};
  const ac::SebOperatingPoint op = seb.solve(spec.loads.at("power_w"), 295.15,
                                             ac::SebCooling::HeatPipesAndLhp,
                                             spec.params.at("tilt_deg"));
  return {
      {"dt_pcb_air", op.dt_pcb_air},
      {"q_lhp_path", op.q_lhp_path},
      {"t_pcb", op.t_pcb},
  };
}

/// Fig. 2 style placement variant: the heavy component slides along the
/// board, the fundamental frequency is the scenario output. The 84-DOF
/// board iterates, so the context's pool does the SpMV work.
///   params: mass_x
std::map<std::string, double> modal_scenario(const ac::ScenarioSpec& spec,
                                             aeropack::ExecutionContext&) {
  af::PlateModel board(0.16, 0.10, 1.6e-3, am::fr4(), 8, 5);
  board.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  board.add_smeared_mass(2.5);
  board.add_point_mass(spec.params.at("mass_x"), 0.05, 0.18);
  board.add_doubler(0.03, 0.13, 0.02, 0.08, 1.8);
  af::ModalOptions opts;
  opts.n_modes = 6;
  const af::PlateModalResult modes = board.solve_modal(opts);
  return {
      {"f1_hz", modes.frequencies_hz[0]},
      {"f2_hz", modes.frequencies_hz[1]},
  };
}

/// FV slab at one heat load: the qualification-campaign style thermal check.
///   loads: power_w
std::map<std::string, double> fv_scenario(const ac::ScenarioSpec& spec,
                                          aeropack::ExecutionContext&) {
  at::FvModel slab(at::FvGrid::uniform(0.1, 0.02, 0.01, 16, 4, 4));
  slab.set_material(am::aluminum_6061());
  slab.add_power({0, 16, 0, 4, 0, 4}, spec.loads.at("power_w"));
  slab.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  slab.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(320.0));
  const at::FvSolution sol = slab.solve_steady();
  return {
      {"t_max", sol.max_temperature},
  };
}

/// Full qualification campaign for a board variant: the modal solve feeds
/// the EUT's fundamental frequency, an FV solve feeds its junction
/// temperature model, then the DO-160-style campaign runs end to end.
///   params: thickness
std::map<std::string, double> qual_scenario(const ac::ScenarioSpec& spec,
                                            aeropack::ExecutionContext&) {
  const double thickness = spec.params.at("thickness");
  af::PlateModel board(0.16, 0.10, thickness, am::fr4(), 8, 5);
  board.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  board.add_smeared_mass(2.5);
  board.add_point_mass(0.05, 0.05, 0.18);
  af::ModalOptions opts;
  opts.n_modes = 1;
  const double f1 = board.solve_modal(opts).frequencies_hz[0];

  ac::EquipmentUnderTest eut;
  eut.name = "board";
  eut.fundamental_frequency = f1;
  eut.board_thickness = thickness;
  eut.worst_junction_at_ambient = [](double ambient) {
    at::FvModel slab(at::FvGrid::uniform(0.1, 0.02, 0.01, 12, 3, 3));
    slab.set_material(am::aluminum_6061());
    slab.add_power({0, 12, 0, 3, 0, 3}, 6.0);
    slab.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(ambient));
    return slab.solve_steady().max_temperature;
  };
  const ac::CampaignReport report = ac::run_campaign(eut);
  double min_margin = 1e300;
  for (const ac::TestResult& r : report.results) min_margin = std::min(min_margin, r.margin);
  return {
      {"f1_hz", f1},
      {"all_passed", report.all_passed ? 1.0 : 0.0},
      {"min_margin", min_margin},
  };
}

ac::ScenarioSpec sweep_spec(const char* name, const char* graph) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = graph;
  return spec;
}

std::vector<ac::ScenarioSpec> sweep_specs(bool smoke) {
  std::vector<ac::ScenarioSpec> specs;
  char name[32];
  const std::vector<double> powers =
      smoke ? std::vector<double>{60.0, 120.0}
            : std::vector<double>{40.0, 60.0, 80.0, 100.0, 120.0};
  for (const double p : powers) {
    std::snprintf(name, sizeof name, "seb_p%03d", static_cast<int>(p));
    ac::ScenarioSpec spec = sweep_spec(name, "seb_scenario");
    spec.loads = {{"power_w", p}};
    spec.params = {{"tilt_deg", p >= 100.0 ? 22.0 : 0.0}};
    specs.push_back(spec);
  }
  const std::vector<double> xs =
      smoke ? std::vector<double>{0.05} : std::vector<double>{0.03, 0.05, 0.08, 0.11};
  for (const double x : xs) {
    std::snprintf(name, sizeof name, "modal_x%03d", static_cast<int>(x * 1e3));
    ac::ScenarioSpec spec = sweep_spec(name, "modal_scenario");
    spec.params = {{"mass_x", x}};
    specs.push_back(spec);
  }
  const std::vector<double> loads =
      smoke ? std::vector<double>{5.0} : std::vector<double>{2.0, 5.0, 8.0, 12.0};
  for (const double q : loads) {
    std::snprintf(name, sizeof name, "fv_q%03d", static_cast<int>(q));
    ac::ScenarioSpec spec = sweep_spec(name, "fv_scenario");
    spec.loads = {{"power_w", q}};
    specs.push_back(spec);
  }
  if (!smoke) {
    for (const double t : {1.2e-3, 1.6e-3, 2.0e-3}) {
      std::snprintf(name, sizeof name, "qual_t%03d", static_cast<int>(t * 1e5));
      ac::ScenarioSpec spec = sweep_spec(name, "qual_scenario");
      spec.params = {{"thickness", t}};
      specs.push_back(spec);
    }
  }
  return specs;
}

/// One sweep batch on a fresh service with plain batch semantics: no dedup,
/// no artifact cache, so every scenario is an isolated cold solve.
std::vector<ac::ScenarioResult> run_sweep(std::size_t workers, bool telemetry,
                                          const std::vector<ac::ScenarioSpec>& specs) {
  ac::ScenarioServiceOptions opts;
  opts.workers = workers;
  opts.threads_per_scenario = 1;
  opts.telemetry = telemetry;
  opts.deduplicate = false;
  opts.use_cache = false;
  ac::ScenarioService service(opts);
  service.register_graph("seb_scenario", &seb_scenario);
  service.register_graph("modal_scenario", &modal_scenario);
  service.register_graph("fv_scenario", &fv_scenario);
  service.register_graph("qual_scenario", &qual_scenario);
  return service.run(specs);
}

struct SweepPoint {
  std::size_t workers = 1;
  double seconds = 0.0;
  double scenarios_per_sec = 0.0;
};

// ---- campaign mode: ScenarioService over ScenarioSpec schemas -----------
//
// A design campaign interleaves four spec families block by block:
//   - seb_point power sweep (Fig. 10 ordinate) — closed form, no artifact;
//   - modal_plate placement variants (Fig. 2) — every variant moves point
//     mass only, so all share ONE cached stiffness factorization;
//   - fv_slab_steady load variants — all share ONE cached FV assembly;
//   - rom_board_steady operating points — all share ONE cached RomModel
//     (the expensive build amortized over the whole campaign).
// Every block also re-submits an earlier SEB point under a new name, so
// content-hash deduplication fires throughout.
std::vector<ac::ScenarioSpec> make_campaign(std::size_t n_points) {
  std::vector<ac::ScenarioSpec> specs;
  specs.reserve(n_points);
  char name[48];
  for (std::size_t b = 0; specs.size() < n_points; ++b) {
    const std::size_t block_start = specs.size();
    for (std::size_t j = 0; j < 2 && specs.size() < n_points; ++j) {
      const double power = 40.0 + static_cast<double>((2 * b + j) % 160) * 0.5;
      ac::ScenarioSpec seb;
      std::snprintf(name, sizeof name, "seb_b%zu_%zu", b, j);
      seb.name = name;
      seb.graph = "seb_point";
      seb.loads = {{"power_w", power}};
      specs.push_back(seb);
    }
    for (std::size_t j = 0; j < 2 && specs.size() < n_points; ++j) {
      const double x = 0.030 + static_cast<double>((2 * b + j) % 40) * 0.002;
      ac::ScenarioSpec modal;
      std::snprintf(name, sizeof name, "modal_b%zu_%zu", b, j);
      modal.name = name;
      modal.graph = "modal_plate";
      modal.params = {{"mass_x", x}};
      specs.push_back(modal);
    }
    if (specs.size() < n_points) {
      ac::ScenarioSpec fv;
      std::snprintf(name, sizeof name, "fv_b%zu", b);
      fv.name = name;
      fv.graph = "fv_slab_steady";
      fv.loads = {{"power_w", 2.0 + static_cast<double>(b % 60) * 0.25}};
      fv.boundaries = {{"t_hot", 310.0 + static_cast<double>(b % 5)}};
      specs.push_back(fv);
    }
    for (std::size_t j = 0; j < 6 && specs.size() < n_points; ++j) {
      ac::ScenarioSpec rom;
      std::snprintf(name, sizeof name, "rom_b%zu_%zu", b, j);
      rom.name = name;
      rom.graph = "rom_board_steady";
      rom.loads = {{"cpu", static_cast<double>((6 * b + j) % 100) * 0.2},
                   {"psu", static_cast<double>((b + j) % 50) * 0.1}};
      rom.boundaries = {{"rail_left", 313.0}, {"rail_right", 315.0},
                        {"top_air", 300.0 + static_cast<double>(b % 8)}};
      specs.push_back(rom);
    }
    if (specs.size() < n_points) {  // duplicate of this block's first SEB point
      ac::ScenarioSpec dup = specs[block_start];
      dup.name += "_dup";
      specs.push_back(dup);
    }
  }
  return specs;
}

ac::ScenarioServiceOptions campaign_options(std::size_t workers, bool use_cache) {
  ac::ScenarioServiceOptions opts;
  opts.workers = workers;
  opts.threads_per_scenario = 1;
  // Counters come from ArtifactCache/ScenarioService lifetime stats, not
  // per-scenario registries — campaign scenarios are microsolves, so
  // per-scenario registry setup would dominate what we measure.
  opts.telemetry = false;
  opts.use_cache = use_cache;
  opts.deduplicate = use_cache;  // baseline = legacy semantics: every spec solves
  return opts;
}

/// One campaign run on a fresh service, with its wall time and the
/// service's lifetime cache and dedup stats.
struct CampaignRun {
  std::vector<ac::ScenarioResult> results;
  double seconds = 0.0;
  ac::ArtifactCacheStats cache;
  ac::ScenarioServiceStats service;
};

CampaignRun run_campaign(const std::vector<ac::ScenarioSpec>& campaign, std::size_t workers,
                         bool use_cache) {
  ac::ScenarioService service(campaign_options(workers, use_cache));
  aeropack::rom::register_rom_graphs(service);
  CampaignRun run;
  const auto t0 = std::chrono::steady_clock::now();
  run.results = service.run(campaign);
  run.seconds = seconds_since(t0);
  run.cache = service.cache().stats();
  run.service = service.stats();
  return run;
}

double median_seconds(const std::vector<CampaignRun>& runs) {
  std::vector<double> seconds;
  for (const CampaignRun& r : runs) seconds.push_back(r.seconds);
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

int fail_campaign(const char* what) {
  std::fprintf(stderr, "campaign gate failed: %s\n", what);
  return 1;
}

void write_json(const std::string& path, std::size_t hardware, std::size_t n_scenarios,
                const std::vector<SweepPoint>& sweep) {
  std::ofstream out(path);
  if (!out) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"scenario_throughput\",\n";
  out << "  \"hardware_threads\": " << hardware << ",\n";
  out << "  \"scenarios\": " << n_scenarios << ",\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    out << "    {\"workers\": " << p.workers << ", \"seconds\": " << p.seconds
        << ", \"scenarios_per_sec\": " << p.scenarios_per_sec
        << ", \"speedup_vs_1\": "
        << (p.seconds > 0.0 ? sweep.front().seconds / p.seconds : 0.0) << "}"
        << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("  series written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  // --smoke: reduced batch + workers {1, 2}, the configuration the CI
  // bench-smoke job freezes per-scenario counter expectations for.
  // --report <out.json>: write the obs run report with every scenario's
  // counters merged under "<scenario>." prefixes.
  bool smoke = false;
  std::string report_path;
  std::size_t campaign_points = 0;  // 0 = default for the mode
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(std::string("--report=").size());
    } else if (arg == "--campaign" && i + 1 < argc) {
      campaign_points = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg.rfind("--campaign=", 0) == 0) {
      campaign_points =
          static_cast<std::size_t>(std::stoul(arg.substr(std::string("--campaign=").size())));
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s (supported: --smoke, --report <out.json>, "
                   "--campaign <points>)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (campaign_points == 0) campaign_points = smoke ? 240 : 10080;
  if (!report_path.empty()) obs::enable();

  std::printf("\n================================================================\n");
  std::printf("BENCH-SCENARIO — co-design batch throughput on isolated contexts\n");
  std::printf("SEB sweep + modal placement + FV loads via core::ScenarioService\n");
  std::printf("================================================================\n");

  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> worker_counts{1, 2, 4};
  if (hardware > 4) worker_counts.push_back(hardware);
  if (smoke) {
    worker_counts = {1, 2};
    std::printf("  smoke mode: reduced batch, workers {1, 2}\n");
  }
  std::printf("  hardware threads: %zu\n\n", hardware);

  const std::vector<ac::ScenarioSpec> specs = sweep_specs(smoke);
  std::vector<SweepPoint> sweep;
  std::vector<ac::ScenarioResult> reference;  // workers=1 run, for the report
  for (const std::size_t w : worker_counts) {
    const bool telemetry = !report_path.empty() || w == worker_counts.front();
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ac::ScenarioResult> results = run_sweep(w, telemetry, specs);
    SweepPoint point;
    point.workers = w;
    point.seconds = seconds_since(t0);
    point.scenarios_per_sec =
        point.seconds > 0.0 ? static_cast<double>(results.size()) / point.seconds : 0.0;
    sweep.push_back(point);

    for (const ac::ScenarioResult& r : results)
      if (!r.ok) {
        std::fprintf(stderr, "scenario %s failed: %s\n", r.name.c_str(), r.error.c_str());
        return 1;
      }
    // Isolation contract: outputs at w workers match the serial run exactly.
    if (w == worker_counts.front()) {
      reference = std::move(results);
    } else {
      for (std::size_t i = 0; i < results.size(); ++i)
        for (const auto& [key, value] : results[i].values)
          if (value != reference[i].values.at(key)) {
            std::fprintf(stderr, "scenario %s: %s drifted at %zu workers (%.17g != %.17g)\n",
                         results[i].name.c_str(), key.c_str(), w, value,
                         reference[i].values.at(key));
            return 1;
          }
    }
    std::printf("  workers=%2zu: %5.2f s, %6.2f scenarios/sec (speedup %.2fx)\n", w,
                point.seconds, point.scenarios_per_sec,
                point.seconds > 0.0 ? sweep.front().seconds / point.seconds : 0.0);
  }

  std::printf("\n  %-8s | %-10s | %-16s | %-10s\n", "workers", "wall [s]", "scenarios/sec",
              "speedup");
  std::printf("  ---------+------------+------------------+----------\n");
  for (const SweepPoint& p : sweep)
    std::printf("  %8zu | %10.3f | %16.2f | %9.2fx\n", p.workers, p.seconds,
                p.scenarios_per_sec, p.seconds > 0.0 ? sweep.front().seconds / p.seconds : 0.0);
  const SweepPoint& best =
      *std::max_element(sweep.begin(), sweep.end(), [](const SweepPoint& a, const SweepPoint& b) {
        return a.scenarios_per_sec < b.scenarios_per_sec;
      });
  std::printf("\n  headline: %zu scenarios, best %.2f scenarios/sec at %zu workers"
              " (%.2fx over serial)\n\n",
              reference.size(), best.scenarios_per_sec, best.workers,
              best.seconds > 0.0 ? sweep.front().seconds / best.seconds : 0.0);

  write_json("BENCH_scenario_throughput.json", hardware, reference.size(), sweep);

  // ---- campaign section: ScenarioService + artifact cache ---------------
  //
  // The same bench binary drives the schema-first path: a >= 10^4-point
  // design campaign (240 in smoke) through ScenarioService three ways —
  // cached at 1 worker (the deterministic run whose cache counters CI
  // gates), cached at several workers (throughput), and cache-less at 1
  // worker (the cold baseline the cached run must beat and match to the
  // bit). Each 1-worker side is timed as the median of kTimedRuns runs on
  // fresh services, alternating which side goes first, so one slow run on a
  // noisy host cannot decide the speedup. Smoke self-gates: hit rate >= 0.5,
  // speedup >= 2x, bitwise equal.
  std::printf("\n----------------------------------------------------------------\n");
  std::printf("campaign: %zu design points via core::ScenarioService\n", campaign_points);
  std::printf("----------------------------------------------------------------\n");
  const std::vector<ac::ScenarioSpec> campaign = make_campaign(campaign_points);

  constexpr int kTimedRuns = 3;
  std::vector<CampaignRun> cached_runs, plain_runs;
  for (int r = 0; r < kTimedRuns; ++r) {
    const bool cached_first = r % 2 == 0;
    for (const bool use_cache : {cached_first, !cached_first})
      (use_cache ? cached_runs : plain_runs).push_back(run_campaign(campaign, 1, use_cache));
  }
  const double cached_secs = median_seconds(cached_runs);
  const double plain_secs = median_seconds(plain_runs);
  // Every fresh cached service counts the same; the report reads the first.
  const ac::ArtifactCacheStats cstats = cached_runs.front().cache;
  const ac::ScenarioServiceStats sstats = cached_runs.front().service;

  const std::size_t campaign_workers = smoke ? 2 : std::min<std::size_t>(hardware, 8);
  const CampaignRun wide = run_campaign(campaign, campaign_workers, true);

  std::vector<const CampaignRun*> runs{&wide};
  for (const std::vector<CampaignRun>* side : {&cached_runs, &plain_runs})
    for (const CampaignRun& run : *side) runs.push_back(&run);
  for (const CampaignRun* run : runs)
    for (const ac::ScenarioResult& r : run->results)
      if (!r.ok) {
        std::fprintf(stderr, "campaign scenario %s failed: %s\n", r.name.c_str(),
                     r.error.c_str());
        return 1;
      }
  // Bit-identity gate: every cached run (1 and N workers) and every other
  // cache-less run vs the first cache-less baseline.
  const std::vector<ac::ScenarioResult>& baseline = plain_runs.front().results;
  for (const CampaignRun* run : runs)
    for (std::size_t i = 0; i < campaign.size(); ++i)
      for (const auto& [key, value] : baseline[i].values)
        if (run->results[i].values.at(key) != value)
          return fail_campaign("cached or repeated values drifted from the no-cache baseline");

  const double hit_total = static_cast<double>(cstats.hits + cstats.misses);
  const double hit_rate = hit_total > 0.0 ? static_cast<double>(cstats.hits) / hit_total : 0.0;
  const double cached_rate =
      cached_secs > 0.0 ? static_cast<double>(campaign.size()) / cached_secs : 0.0;
  const double plain_rate =
      plain_secs > 0.0 ? static_cast<double>(campaign.size()) / plain_secs : 0.0;
  const double speedup = plain_secs > 0.0 && cached_secs > 0.0 ? plain_secs / cached_secs : 0.0;
  std::printf("  cache:   %llu hits / %llu misses (hit rate %.3f), %llu insertions, "
              "%llu evictions\n",
              static_cast<unsigned long long>(cstats.hits),
              static_cast<unsigned long long>(cstats.misses), hit_rate,
              static_cast<unsigned long long>(cstats.insertions),
              static_cast<unsigned long long>(cstats.evictions));
  std::printf("  dedup:   %llu of %llu submissions resolved without a solve\n",
              static_cast<unsigned long long>(sstats.dedup_hits),
              static_cast<unsigned long long>(sstats.submitted));
  std::printf("  cached   w=1:  %7.2f s, %9.1f scenarios/sec (median of %d)\n", cached_secs,
              cached_rate, kTimedRuns);
  std::printf("  no-cache w=1:  %7.2f s, %9.1f scenarios/sec (median of %d)\n", plain_secs,
              plain_rate, kTimedRuns);
  std::printf("  cached   w=%zu:  %7.2f s, %9.1f scenarios/sec\n", campaign_workers, wide.seconds,
              wide.seconds > 0.0 ? static_cast<double>(campaign.size()) / wide.seconds : 0.0);
  std::printf("  campaign headline: %.2fx scenarios/sec over no-cache at 1 worker\n\n", speedup);

  if (smoke) {
    if (hit_rate < 0.5) return fail_campaign("artifact-cache hit rate below 0.5");
    if (speedup < 2.0) return fail_campaign("cached throughput below 2x the no-cache baseline");
  }

  if (!report_path.empty()) {
    obs::Report report = obs::Report::capture("bench_scenario_throughput", an::thread_count());
    report.set_meta("smoke", smoke ? 1.0 : 0.0);
    report.set_meta("scenarios", static_cast<double>(reference.size()));
    report.set_meta("best_workers", static_cast<double>(best.workers));
    // Per-scenario isolated cost profiles from the serial reference run —
    // deterministic at any worker count, so CI gates them.
    for (const ac::ScenarioResult& r : reference) {
      report.add_counters(r.name, r.counters);
      report.add_gauges(r.name, r.gauges);
    }
    // Campaign cache/dedup totals from the serial cached run: submit order
    // is fixed and the worker drains FIFO, so these are exact constants CI
    // gates (check_report.py, plus the --cache-floor tripwire).
    report.set_meta("campaign.points", static_cast<double>(campaign.size()));
    report.set_meta("campaign.hit_rate", hit_rate);
    report.set_meta("campaign.speedup_vs_no_cache", speedup);
    report.add_counters("svc", {{"cache.hits", cstats.hits},
                                {"cache.misses", cstats.misses},
                                {"cache.insertions", cstats.insertions},
                                {"cache.evictions", cstats.evictions},
                                {"cache.dedup_hits", sstats.dedup_hits},
                                {"scenarios.submitted", sstats.submitted},
                                {"scenarios.executed", sstats.executed}});
    report.write(report_path);
    std::printf("  run report written to %s\n", report_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench failed: %s\n", e.what());
  return 1;
} catch (...) {
  std::fprintf(stderr, "bench failed: unknown exception\n");
  return 1;
}
