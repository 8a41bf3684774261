// AeroPack benchmark: campaign runner, output checks and traced replay.
//
//   aerobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <hex>] [--trace-out <file>]
//
// Every run: set up the service several times (setup_s is the median), then
// drive the workload's closed loop through core::ScenarioService with
// telemetry off, in rounds of the same specs on fresh services until
// `seconds` is spent (each time metric is the median over rounds), with
// the host-speed kernel (calibrate.hpp) run between rounds; then check the
// outputs (every result ok and bitwise the same in every round, per-graph
// sanity bounds, a seeded sample re-run cold and compared bitwise).
// With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 the run goes on to replay the same specs through
// each layer's public API (replay.hpp) and the last line carries the
// per-layer metrics instead. Lines before it are a readable report.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "checks.hpp"
#include "core/scenario_service.hpp"
#include "exec/context.hpp"
#include "materials/solid.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "thermal/fv.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

namespace ab = aerobench;
namespace ac = aeropack::core;
using Clock = std::chrono::steady_clock;

// setup_s is the median of kSetupRounds rounds. A round repeats the set-up
// until kSetupRoundSeconds of set-up time is spent and yields the mean: the
// millisecond set-ups of design_campaign and mission_campaign are bimodal
// (about 5 and 7.6 ms on a 4-vCPU KVM host), so a median of single set-ups
// jumps between the modes from run to run.
constexpr int kSetupRounds = 11;
constexpr double kSetupRoundSeconds = 0.15;
constexpr std::size_t kColdSamplesPerGraph = 2;
constexpr std::size_t kMinRounds = 2;
constexpr double kCalibrationSeconds = 0.5;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : ab::median(v); }

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument("--workload, --seed, --seconds and --trace are required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0))
    throw std::invalid_argument("--seconds must be in (0, 600]");
  return a;
}

// ---- the service under test -----------------------------------------------

ac::ScenarioServiceOptions service_options(const ab::LoadShape& shape, bool cached) {
  ac::ScenarioServiceOptions o;
  o.workers = shape.workers;
  o.threads_per_scenario = shape.threads_per_scenario;
  o.telemetry = false;
  o.use_cache = cached;
  o.deduplicate = cached;
  return o;
}

/// Service construction, graph registration and one warm-up spec per shared
/// artifact: the cold builds a campaign pays once.
std::unique_ptr<ac::ScenarioService> set_up(const ab::Workload& w) {
  auto svc = std::make_unique<ac::ScenarioService>(service_options(w.shape, true));
  ab::register_graphs(*svc);
  for (const ac::ScenarioResult& r : svc->run(w.warmups()))
    if (!r.ok) throw std::runtime_error("warm-up " + r.name + " failed: " + r.error);
  return svc;
}

struct Sample {
  std::uint64_t index = 0;
  std::size_t graph = 0;  ///< index into Workload::graphs
  double latency_s = 0.0;
  double submit_s = 0.0;
  double execute_s = 0.0;  ///< ScenarioResult::seconds
  std::uint64_t hash = 0;  ///< values_hash of the outputs
  bool good = false;       ///< ok and within the sanity bounds
};

/// One timed round: every spec of the round served once.
struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double p50_s = 0.0;
  ab::TailPoint tail;
  /// Host speed while the round ran (host_speed), mean of the calibrations
  /// just before and just after it.
  double speed = 1.0;
};

struct Campaign {
  /// The first round's samples, spec i at [i]. `good` only if every round
  /// served spec i well and with bitwise the same outputs.
  std::vector<Sample> samples;
  std::vector<Round> rounds;
  double rss_mb = 0.0;                 ///< peak RSS at the end of the first round
  ac::ScenarioServiceStats svc_stats;  ///< the first round's service, warm-ups excluded
  std::vector<std::string> errors;
};

/// The calibration kernel, on as many threads as the workload computes on.
double host_speed(const ab::Workload& w) {
  return ab::host_speed(w.shape.workers * w.shape.threads_per_scenario, kCalibrationSeconds);
}

std::size_t graph_index(const ab::Workload& w, const std::string& graph) {
  const auto it = std::find(w.graphs.begin(), w.graphs.end(), graph);
  return static_cast<std::size_t>(it - w.graphs.begin());
}

/// One closed-loop round over specs 0..round_specs-1: each client pulls the
/// next spec index, submits, waits, repeats until every index is handed out.
std::vector<Sample> run_round(ac::ScenarioService& svc, const ab::Workload& w,
                              std::uint64_t seed, std::vector<std::string>& errors) {
  std::atomic<std::uint64_t> next{0};
  std::mutex errors_mutex;
  std::vector<Sample> samples(w.round_specs);
  std::vector<std::jthread> clients;
  for (std::size_t k = 0; k < w.shape.clients; ++k) {
    clients.emplace_back([&] {
      for (std::uint64_t i = next.fetch_add(1); i < w.round_specs; i = next.fetch_add(1)) {
        Sample& s = samples[i];
        s.index = i;
        std::string error;
        try {
          const ac::ScenarioSpec spec = w.spec_at(seed, i);
          s.graph = graph_index(w, spec.graph);
          ac::ScenarioSpec copy = spec;
          const auto a = Clock::now();
          const ac::ScenarioService::Ticket ticket = svc.submit(std::move(copy));
          const auto b = Clock::now();
          const ac::ScenarioResult r = svc.wait(ticket);
          s.latency_s = since(a);
          s.submit_s = std::chrono::duration<double>(b - a).count();
          s.execute_s = r.seconds;
          s.hash = ab::values_hash(r.values);
          error = r.ok ? ab::sanity_check(spec, r.values) : r.error;
          s.good = r.ok && error.empty();
        } catch (const std::exception& e) {
          error = e.what();
        }
        if (!s.good) {
          const std::lock_guard lock(errors_mutex);
          errors.push_back("spec " + std::to_string(i) + ": " + error);
        }
      }
    });
  }
  clients.clear();  // joins
  return samples;
}

/// The timed phase: rounds of the same specs, each on a freshly set-up
/// service, until `seconds` is spent (at least kMinRounds). Every round does
/// the same work, so the rounds differ only by what the host's other tenants
/// did meanwhile, and a median over rounds discounts a disturbed one.
/// `speed` is the host speed measured just before the call.
Campaign run_campaign(std::unique_ptr<ac::ScenarioService> svc, const ab::Workload& w,
                      std::uint64_t seed, double seconds, double speed) {
  Campaign c;
  const auto t0 = Clock::now();
  do {
    if (!svc) svc = set_up(w);
    const ac::ScenarioServiceStats before = svc->stats();
    const double cpu0 = cpu_seconds();
    const auto r0 = Clock::now();
    std::vector<Sample> samples = run_round(*svc, w, seed, c.errors);
    Round r;
    r.wall_s = since(r0);
    r.cpu_s = cpu_seconds() - cpu0;
    if (c.rounds.empty()) {
      c.rss_mb = peak_rss_mb();
      c.svc_stats = svc->stats();
      c.svc_stats.submitted -= before.submitted;
      c.svc_stats.executed -= before.executed;
      c.svc_stats.dedup_hits -= before.dedup_hits;
      c.samples = samples;
    }
    svc.reset();
    const double speed_after = host_speed(w);
    r.speed = 0.5 * (speed + speed_after);
    speed = speed_after;

    std::vector<double> latencies;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      Sample& first = c.samples[i];
      latencies.push_back(s.latency_s);
      if (s.good && s.hash != first.hash)
        c.errors.push_back("spec " + std::to_string(i) + ": outputs differ between rounds");
      first.good = first.good && s.good && s.hash == first.hash;
    }
    r.p50_s = ab::median(latencies);
    r.tail = ab::tail_latency(latencies);
    c.rounds.push_back(r);
  } while (c.rounds.size() < kMinRounds || since(t0) < seconds);
  return c;
}

/// Re-run a seeded sample of the good results, covering every graph, on a
/// fresh service with the cache and dedup off; outputs must match the timed
/// run bitwise. Returns the number of mismatching (or failing) specs.
std::size_t cold_rerun_check(const ab::Workload& w, std::uint64_t seed, const Campaign& c,
                             std::vector<std::string>& errors) {
  std::vector<std::vector<std::uint64_t>> by_graph(w.graphs.size());
  for (const Sample& s : c.samples)
    if (s.good && s.graph < by_graph.size()) by_graph[s.graph].push_back(s.index);
  std::vector<std::uint64_t> picks;
  for (std::size_t g = 0; g < by_graph.size(); ++g) {
    std::vector<std::uint64_t>& pool = by_graph[g];
    ab::Rng rng(seed ^ 0xC01DC01DULL, g);
    for (std::size_t k = 0; k < kColdSamplesPerGraph && !pool.empty(); ++k) {
      const std::size_t at = rng.below(pool.size());
      picks.push_back(pool[at]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
    }
  }
  std::vector<ac::ScenarioSpec> specs;
  for (std::uint64_t i : picks) specs.push_back(w.spec_at(seed, i));
  ac::ScenarioService cold(service_options(w.shape, false));
  ab::register_graphs(cold);
  const std::vector<ac::ScenarioResult> results = cold.run(specs);
  std::size_t bad = 0;
  for (std::size_t k = 0; k < picks.size(); ++k) {
    const Sample& s = c.samples[picks[k]];
    if (!results[k].ok || ab::values_hash(results[k].values) != s.hash) {
      ++bad;
      errors.push_back("spec " + std::to_string(picks[k]) + " (" + specs[k].graph +
                       "): cold re-run differs from the cached run");
    }
  }
  std::printf("# cold re-run check: %zu specs covering %zu graphs, %zu mismatches\n",
              picks.size(), w.graphs.size(), bad);
  return bad;
}

// ---- metrics output ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metadata(const Args& a, const ab::Workload& w) {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"nproc\": %u, "
      "\"l3_bytes\": %ld, \"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"source_digest\": \"%s\", \"clients\": %zu, \"workers\": %zu, "
      "\"threads_per_scenario\": %zu}\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      std::thread::hardware_concurrency(), l3, AEROBENCH_BUILD_TYPE, AEROBENCH_COMPILER,
      a.commit.c_str(), a.source_digest.c_str(), w.shape.clients, w.shape.workers,
      w.shape.threads_per_scenario);
  std::printf("# mix: %s\n", w.mix.c_str());
  // The 48^3 CG working set against the last-level cache.
  const std::size_t n = 48 * 48 * 48;
  const double csr = static_cast<double>(ab::seven_point_nonzeros(48, 48, 48)) * 16.0 +
                     static_cast<double>(n + 1) * 8.0;
  const double vectors = 8.0 * 8.0 * static_cast<double>(n);  // b, x, r, z, p, Ap, D^-1, base
  std::printf(
      "# 48^3 working set: %zu cells, CSR %.1f MB + CG vectors %.1f MB = %.1f MB %s L3 %.1f MB; "
      "CG bytes are computed from array sizes, no bandwidth ratio is claimed\n",
      n, csr / 1e6, vectors / 1e6, (csr + vectors) / 1e6,
      csr + vectors < static_cast<double>(l3) ? "fits in" : "exceeds",
      static_cast<double>(l3) / 1e6);
}

// ---- traced run -------------------------------------------------------------

struct ReplayRun {
  std::size_t specs = 0;
  double bare_s = 0.0;    ///< replay calls without spans or telemetry
  double traced_s = 0.0;  ///< the same calls with spans and telemetry
  std::size_t mismatches = 0;
};

/// Replay specs 0, 1, ... of the timed phase twice, bare and traced, each
/// on its own replayer (fresh cache), alternating spec by spec so warm-up
/// and drift fall on both sides alike. Stops when `budget_s` is spent or
/// every timed spec is replayed. Both replays must reproduce the service's
/// outputs bitwise.
ReplayRun replay_campaign(ab::Replayer& bare, ab::Replayer& traced, const ab::Workload& w,
                          std::uint64_t seed, const Campaign& c, double budget_s,
                          std::vector<std::string>& errors) {
  ReplayRun r;
  const auto timed = [&](ab::Replayer& rp, const ac::ScenarioSpec& spec, double& total) {
    const auto t0 = Clock::now();
    const auto out = rp.replay(spec, static_cast<std::int64_t>(r.specs));
    total += since(t0);
    if (ab::values_hash(out) != c.samples[r.specs].hash) {
      ++r.mismatches;
      errors.push_back("spec " + std::to_string(r.specs) + ": replay differs from the service");
    }
  };
  for (; r.specs < c.samples.size() && r.bare_s + r.traced_s < budget_s; ++r.specs) {
    const ac::ScenarioSpec spec = w.spec_at(seed, r.specs);
    timed(bare, spec, r.bare_s);
    timed(traced, spec, r.traced_s);
  }
  return r;
}

/// t1 / (4 t4) for one 48^3 fv_slab_steady solve on a shared assembly
/// (best of two solves per thread count).
double parallel_efficiency() {
  namespace at = aeropack::thermal;
  at::FvModel fine(at::FvGrid::uniform(0.05, 0.05, 0.05, 48, 48, 48));
  fine.set_material(aeropack::materials::aluminum_6061());
  fine.add_power(fine.all_cells(), 5.0);
  fine.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  fine.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(320.0));
  const at::FvOptions opts;
  const auto assembly = fine.build_assembly(opts, 0.0);
  const auto best_of_two = [&](std::size_t threads) {
    aeropack::ExecutionConfig cfg;
    cfg.threads = threads;
    aeropack::ExecutionContext ctx(cfg);
    const aeropack::ExecutionContext::Use use(ctx);
    double best = INFINITY;
    for (int r = 0; r < 2; ++r) {
      const auto t0 = Clock::now();
      const at::FvSolution sol = fine.solve_steady(assembly, opts);
      best = std::min(best, since(t0));
      if (!sol.converged) throw std::runtime_error("48^3 probe solve did not converge");
    }
    return best;
  };
  const double t1 = best_of_two(1);
  const double t4 = best_of_two(4);
  return t1 / (4.0 * t4);
}

struct SpanIndex {
  const std::vector<ab::Span>& spans;
  std::vector<double> self;

  explicit SpanIndex(const std::vector<ab::Span>& s) : spans(s), self(ab::self_times(s)) {}

  std::vector<double> durations(const std::string& name) const {
    std::vector<double> v;
    for (const ab::Span& s : spans)
      if (s.name == name) v.push_back(s.duration());
    return v;
  }
  std::vector<double> self_times(const std::string& name) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].name == name) v.push_back(self[i]);
    return v;
  }
  /// Summed duration of the named spans (only those whose parent span is
  /// named `parent`, when given).
  double total(const std::string& name, const std::string& parent = {}) const {
    const auto under = [&](const ab::Span& s) {
      return parent.empty() ||
             (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].name == parent);
    };
    double t = 0.0;
    for (const ab::Span& s : spans)
      if (s.name == name && under(s)) t += s.duration();
    return t;
  }
  std::uint64_t calls(const std::string& name) const {
    std::uint64_t n = 0;
    for (const ab::Span& s : spans)
      if (s.name == name) n += s.calls;
    return n;
  }
  /// Median over requests of the summed duration of the named spans.
  double per_request_median(const std::vector<std::string>& names) const {
    std::map<std::int64_t, double> sums;
    for (const ab::Span& s : spans)
      if (std::find(names.begin(), names.end(), s.name) != names.end())
        sums[s.request] += s.duration();
    std::vector<double> v;
    for (const auto& [req, t] : sums) v.push_back(t);
    return median_or_zero(v);
  }
};

std::vector<Metric> layer_metrics(const SpanIndex& ix, const ab::ReplayStats& st,
                                  const ac::ArtifactCacheStats& cache, const Campaign& c,
                                  const ac::ScenarioServiceStats& svc, double overhead,
                                  double efficiency) {
  const auto counter = [&](const char* name) {
    const auto it = st.counters.find(name);
    return it == st.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto med = [&](const char* name, double scale) {
    return median_or_zero(ix.durations(name)) * scale;
  };
  std::vector<double> submit, execute;
  for (const Sample& s : c.samples) {
    submit.push_back(s.submit_s);
    execute.push_back(s.execute_s);
  }
  // The replay stops on a time budget, so its counter totals grow with the
  // program's speed. Work done per scenario is reported per replayed
  // (non-dedup) scenario, work done once per artifact per build.
  const auto per_scenario = [&](double total) {
    return ratio(total, static_cast<double>(st.executed));
  };
  const double rom_builds = static_cast<double>(ix.durations("rom.build").size());
  const double modal_builds = static_cast<double>(ix.durations("fem.factorize").size());
  const double steps =
      counter("mission.steps") + counter("mission.rom_steps") + counter("mission.network_steps");
  const double rejections = counter("mission.step_rejections") +
                            counter("mission.rom_step_rejections") +
                            counter("mission.network_step_rejections");
  return {
      {"svc.submit_us", median_or_zero(submit) * 1e6, "us"},
      {"svc.execute_ms", median_or_zero(execute) * 1e3, "ms"},
      {"svc.dedup_ratio", ratio(static_cast<double>(svc.dedup_hits),
                                static_cast<double>(svc.submitted)), "ratio"},
      {"svc.executed", static_cast<double>(svc.executed), "count"},
      {"cache.hit_ratio", ratio(static_cast<double>(cache.hits),
                                static_cast<double>(cache.hits + cache.misses)), "ratio"},
      {"cache.misses", static_cast<double>(cache.misses), "count"},
      {"cache.insertions", static_cast<double>(cache.insertions), "count"},
      {"cache.evictions", static_cast<double>(cache.evictions), "count"},
      {"cache.resident_mb", static_cast<double>(cache.bytes) / (1024.0 * 1024.0), "MB"},
      {"cache.lookup_us", med("cache.hit", 1e6), "us"},
      {"cache.key_us", med("cache.key", 1e6), "us"},
      {"spec.content_hash_us", med("spec.content_hash", 1e6), "us"},
      {"exec.context_us", ix.per_request_median({"exec.context", "exec.context_destroy"}) * 1e6,
       "us"},
      {"seb.solve_us", med("seb.solve", 1e6), "us"},
      {"fem.reduced_sparse_us", med("fem.reduced_sparse", 1e6), "us"},
      {"fem.factorize_ms", med("fem.factorize", 1e3), "ms"},
      {"fem.modes_ms", med("fem.modes", 1e3), "ms"},
      {"fem.subspace_iterations_per_solve",
       ratio(counter("numeric.eigen.subspace_iterations"), counter("fem.modal_solves")),
       "count"},
      {"numeric.skyline.factorizations",
       ratio(counter("numeric.skyline.factorizations"), modal_builds), "1/build"},
      {"thermal.build_assembly_ms", med("thermal.build_assembly", 1e3), "ms"},
      {"thermal.solve_steady_ms", med("thermal.solve_steady", 1e3), "ms"},
      {"thermal.solve_steady_self_ms",
       median_or_zero(ix.self_times("thermal.solve_steady")) * 1e3, "ms"},
      {"fv.update_boundary_us",
       ratio(ix.total("fv.update_boundary"), static_cast<double>(ix.calls("fv.update_boundary"))) *
           1e6,
       "us"},
      {"fv.boundary_updates", per_scenario(counter("fv.boundary_updates")), "1/scenario"},
      {"fv.picard_passes", per_scenario(counter("fv.picard_passes")), "1/scenario"},
      {"numeric.cg_ms", ratio(ix.total("numeric.cg"), counter("numeric.cg.solves")) * 1e3, "ms"},
      {"numeric.cg_share", ratio(ix.total("numeric.cg"), ix.total("scenario")), "ratio"},
      {"numeric.cg.solves", per_scenario(counter("numeric.cg.solves")), "1/scenario"},
      {"numeric.cg.iterations_per_solve",
       ratio(counter("numeric.cg.iterations"), counter("numeric.cg.solves")), "count"},
      {"numeric.spmv.calls", per_scenario(counter("numeric.spmv.calls")), "1/scenario"},
      {"numeric.cg.bytes_per_iter_computed",
       ratio(st.cg_bytes, static_cast<double>(st.cg_iterations_modelled)), "B"},
      {"numeric.cg.flops_per_byte_computed", ratio(st.cg_flops, st.cg_bytes), "flop/B"},
      {"numeric.parallel_efficiency", efficiency, "ratio"},
      {"rom.build_ms", ratio(ix.total("rom.build"), rom_builds) * 1e3, "ms"},
      {"rom.snapshots_ms", ratio(ix.total("rom.snapshots"), rom_builds) * 1e3, "ms"},
      {"rom.pod_ms", ratio(ix.total("rom.pod"), rom_builds) * 1e3, "ms"},
      {"rom.project_ms", ratio(ix.total("rom.project"), rom_builds) * 1e3, "ms"},
      {"rom.snapshot_cg_iterations", ratio(counter("rom.snapshot_cg_iterations"), rom_builds),
       "1/build"},
      {"rom.steady_us", med("rom.steady", 1e6), "us"},
      {"rom.transient_steps", per_scenario(counter("rom.transient_steps")), "1/scenario"},
      {"mission.fv_march_ms", med("mission.fv_march", 1e3), "ms"},
      {"mission.rom_march_ms", med("mission.rom_march", 1e3), "ms"},
      {"mission.network_march_ms", med("mission.network_march", 1e3), "ms"},
      {"mission.steps", per_scenario(steps), "1/scenario"},
      {"mission.accept_ratio", ratio(steps, steps + rejections), "ratio"},
      {"mission.cg_iterations_per_step",
       ratio(counter("mission.cg_iterations"), counter("mission.steps")), "count"},
      {"trace.overhead_ratio", overhead, "ratio"},
  };
}

void write_spans(const ab::Recorder& rec, const std::string& path) {
  std::ofstream f(path);
  rec.write_json(f);
  if (!f) throw std::runtime_error("cannot write " + path);
  std::printf("# spans: %zu written to %s\n", rec.spans().size(), path.c_str());
}

/// The traced run: bare and traced replays of the timed specs, outputs
/// checked against the service. A layer the workload never calls reports 0.
std::vector<Metric> traced_run(const ab::Workload& w, const Args& args, Campaign& c,
                               const ac::ScenarioServiceStats& svc_stats,
                               std::size_t& mismatches) {
  const std::size_t threads = w.shape.threads_per_scenario;
  ab::Recorder bare(false), rec(true);
  ab::Replayer bare_rp(bare, threads);
  ab::Replayer traced_rp(rec, threads);
  const ReplayRun rr =
      replay_campaign(bare_rp, traced_rp, w, args.seed, c, args.seconds, c.errors);
  mismatches = rr.mismatches;
  std::printf("# replay: %zu specs, bare %.3f s, traced %.3f s, %zu output mismatches\n",
              rr.specs, rr.bare_s, rr.traced_s, rr.mismatches);

  if (!args.trace_out.empty()) write_spans(rec, args.trace_out);
  const SpanIndex ix(rec.spans());
  if (const double solve = ix.total("thermal.solve_steady"); solve > 0.0)
    std::printf("# numeric.cg is %.1f%% of thermal.solve_steady time\n",
                100.0 * ix.total("numeric.cg", "thermal.solve_steady") / solve);
  const std::vector<Metric> metrics =
      layer_metrics(ix, traced_rp.stats(), traced_rp.cache().stats(), c, svc_stats,
                    ratio(rr.traced_s, rr.bare_s), parallel_efficiency());
  for (const Metric& m : metrics)
    std::printf("# %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  return metrics;
}

int run(const Args& args) {
  const ab::Workload* w = ab::find_workload(args.workload);
  if (w == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  print_metadata(args, *w);

  std::vector<double> setup_times;
  std::vector<int> setup_counts;
  std::unique_ptr<ac::ScenarioService> svc;
  const double setup_speed = host_speed(*w);
  for (int r = 0; r < kSetupRounds; ++r) {
    double spent = 0.0;
    int n = 0;
    do {
      svc.reset();  // the previous service's teardown is not set-up time
      const auto t0 = Clock::now();
      svc = set_up(*w);
      spent += since(t0);
      ++n;
    } while (spent < kSetupRoundSeconds);
    setup_times.push_back(spent / n);
    setup_counts.push_back(n);
  }
  Campaign c = run_campaign(std::move(svc), *w, args.seed, args.seconds, setup_speed);

  std::size_t failed = static_cast<std::size_t>(
      std::count_if(c.samples.begin(), c.samples.end(), [](const Sample& s) { return !s.good; }));
  failed += cold_rerun_check(*w, args.seed, c, c.errors);

  const std::size_t attempted = c.samples.size();
  const std::size_t good = attempted - std::min(failed, attempted);
  const double specs = static_cast<double>(attempted);
  // Every metric is the median of its per-round figures, times scaled to
  // nominal host speed.
  std::vector<double> rate, p50, tail, cpu;
  for (const Round& r : c.rounds) {
    rate.push_back(static_cast<double>(good) / (r.wall_s * r.speed));
    p50.push_back(r.p50_s * r.speed);
    tail.push_back(r.tail.value * r.speed);
    cpu.push_back(r.cpu_s * r.speed / specs);
  }
  std::vector<Metric> metrics = {
      {"scenarios_per_s", ab::median(rate), "1/s"},
      {"latency_p50_ms", ab::median(p50) * 1e3, "ms"},
      {"latency_tail_ms", ab::median(tail) * 1e3, "ms"},
      {"setup_s", ab::median(setup_times) * setup_speed, "s"},
      {"cpu_ms_per_scenario", ab::median(cpu) * 1e3, "ms"},
      {"peak_rss_mb", c.rss_mb, "MB"},
  };
  std::printf("# rounds as measured (wall s, p50 ms, tail ms, host speed):");
  for (const Round& r : c.rounds)
    std::printf(" (%.3f, %.4f, %.3f, %.3f)", r.wall_s, r.p50_s * 1e3, r.tail.value * 1e3,
                r.speed);
  std::printf("\n");
  std::printf("# host speed %.3f before set-up; reported times are scaled to nominal host speed\n",
              setup_speed);
  std::printf("# timed phase: %zu rounds of %zu scenarios, %zu failed (failed_share %.6f)\n",
              c.rounds.size(), attempted, failed,
              static_cast<double>(failed) / static_cast<double>(attempted));
  const ab::TailPoint& rung = c.rounds.front().tail;
  std::printf("# latency_tail_ms is p%g of %zu samples per round (%zu beyond)\n",
              rung.percentile, rung.samples, rung.beyond);
  std::printf("# setup_s rounds (mean s x set-ups):");
  for (std::size_t r = 0; r < setup_times.size(); ++r)
    std::printf(" %.5fx%d", setup_times[r], setup_counts[r]);
  std::printf("\n");
  for (const Metric& m : metrics)
    std::printf("# %-22s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  if (args.trace) {
    std::size_t mismatches = 0;
    metrics = traced_run(*w, args, c, c.svc_stats, mismatches);
    failed += mismatches;
  }

  for (std::size_t i = 0; i < c.errors.size() && i < 20; ++i)
    std::fprintf(stderr, "aerobench: %s\n", c.errors[i].c_str());
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aerobench: %s\n", e.what());
    return 1;
  }
}
