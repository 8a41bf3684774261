// Shared helpers for the reproduction benches: headline banner + a tiny
// fixed-width table printer so every bench emits the same style of
// paper-vs-measured report before its google-benchmark timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "numeric/parallel.hpp"
#include "obs/report.hpp"

namespace bench_util {

/// Runs the calling thread's kernels on a fresh pool of `threads` threads
/// while alive; a sweep binds one per thread count. Unlike an
/// ExecutionContext it leaves the registry binding alone, so a --report run
/// keeps the sweep's counters and spans in the process registry it reports.
class BoundPool {
 public:
  explicit BoundPool(std::size_t threads)
      : pool_(threads), prev_(aeropack::numeric::exchange_current_pool(&pool_)) {}
  ~BoundPool() { aeropack::numeric::exchange_current_pool(prev_); }
  BoundPool(const BoundPool&) = delete;
  BoundPool& operator=(const BoundPool&) = delete;

 private:
  aeropack::numeric::ThreadPool pool_;
  aeropack::numeric::ThreadPool* prev_;
};

inline void banner(const std::string& experiment, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", experiment.c_str(), description.c_str());
  std::printf("================================================================\n");
}

inline void row(const std::string& label, const std::string& paper,
                const std::string& measured, const std::string& verdict = "") {
  std::printf("  %-44s | %-16s | %-16s %s\n", label.c_str(), paper.c_str(), measured.c_str(),
              verdict.c_str());
}

inline void header() {
  std::printf("  %-44s | %-16s | %-16s\n", "quantity", "paper", "this repro");
  std::printf("  %.44s-+-%.16s-+-%.16s\n",
              "--------------------------------------------------",
              "--------------------------------", "--------------------------------");
}

inline std::string fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline const char* check(bool ok) { return ok ? "[ok]" : "[DEVIATES]"; }

/// Dump a numeric series to CSV next to the binary so the figure can be
/// replotted (one file per bench, overwritten on each run).
inline void write_csv(const std::string& path, const std::vector<std::string>& columns,
                      const std::vector<std::vector<double>>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  for (std::size_t i = 0; i < columns.size(); ++i)
    out << columns[i] << (i + 1 < columns.size() ? ',' : '\n');
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i)
      out << row[i] << (i + 1 < row.size() ? ',' : '\n');
  }
  std::printf("  series written to %s\n", path.c_str());
}

/// Pull `--report <path>` / `--report=<path>` out of argv before
/// google-benchmark sees it and return the path ("" if absent). Requesting a
/// report turns telemetry on for the whole run so the captured counters cover
/// every solve the bench performs.
inline std::string extract_report_path(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string arg = argv[r];
    if (arg == "--report" && r + 1 < argc) {
      path = argv[++r];
    } else if (arg.rfind("--report=", 0) == 0) {
      path = arg.substr(std::string("--report=").size());
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  if (!path.empty()) aeropack::obs::enable();
  return path;
}

/// Run label for the report: the binary name without its directory.
inline std::string bench_name(const char* argv0) {
  std::string name = (argv0 != nullptr && *argv0 != '\0') ? argv0 : "bench";
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name;
}

/// Standard main body: print the table, run the registered benchmarks, then
/// write the run report if one was requested. An escaping exception becomes a
/// nonzero exit with the message on stderr — CI needs red, not a bench that
/// dies mid-print with status 0 lost in a pipe.
inline int run(int argc, char** argv, void (*print_report)()) try {
  const std::string report_path = extract_report_path(argc, argv);
  const std::string name = bench_name(argc > 0 ? argv[0] : nullptr);
  print_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!report_path.empty()) {
    aeropack::obs::Report::capture(name, aeropack::numeric::thread_count()).write(report_path);
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

}  // namespace bench_util

#define AEROPACK_BENCH_MAIN(report_fn)                     \
  int main(int argc, char** argv) {                        \
    return bench_util::run(argc, argv, &(report_fn));      \
  }
