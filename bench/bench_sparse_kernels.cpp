// BENCH-SPARSE — multithreaded sparse kernels + FV assembly caching.
//
// Sweeps FV grid sizes (8^3 -> 64^3) and thread counts, timing the hot
// kernels the Picard/transient loops sit on: SpMV, preconditioned CG, the
// one-time structure assembly vs the per-pass boundary rewrite, and the full
// steady FV solve. Emits BENCH_sparse_kernels.json (machine-readable) so
// later PRs can track the perf trajectory, plus the usual table on stdout.
//
// Headline numbers: steady-solve speedup at 4 threads vs 1 thread on the
// largest grid measured, and the assembly time removed per Picard pass by
// structure caching on that grid.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "materials/solid.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "obs/report.hpp"
#include "thermal/fv.hpp"

namespace an = aeropack::numeric;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;
namespace obs = aeropack::obs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Median-of-reps wall time of fn() in milliseconds. Medians (not best-of)
/// because the reported speedup cells are ratios of two timings: a lucky
/// best-of outlier in either operand made the small-grid speedups pure
/// noise. Callers pass reps >= 5.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2] * 1e3;
}

/// Round-trip of an empty parallel dispatch (one no-op task per thread) on a
/// warm pool, median over many reps. Uses ThreadPool::run directly so the
/// grain layer cannot serialize it away — this is the raw scheduling cost
/// the grain thresholds exist to amortize.
double dispatch_overhead_ns(std::size_t threads) {
  an::ThreadPool pool(threads);
  const std::function<void(std::size_t)> noop = [](std::size_t) {};
  for (int w = 0; w < 32; ++w) pool.run(threads, noop);
  constexpr int kReps = 201;
  std::vector<double> samples;
  samples.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pool.run(threads, noop);
    samples.push_back(seconds_since(t0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2] * 1e9;
}

/// An aluminum block with a hot component footprint and convective walls —
/// the same shape of problem the Fig. 4 model levels solve.
at::FvModel make_model(std::size_t n) {
  at::FvModel m(at::FvGrid::uniform(0.1, 0.1, 0.1, n, n, n));
  m.set_material(am::aluminum_6061());
  m.add_power({n / 4, (3 * n) / 4, n / 4, (3 * n) / 4, 0, std::max<std::size_t>(1, n / 8)},
              40.0);
  m.set_boundary(at::Face::ZMax, at::BoundaryCondition::convection(25.0, 300.0));
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(10.0, 300.0));
  return m;
}

struct ThreadTiming {
  std::size_t threads = 1;
  double spmv_ms = 0.0;
  double cg_ms = 0.0;
  std::size_t cg_iterations = 0;
  double steady_ms = 0.0;
};

struct GridResult {
  std::size_t n = 0;
  std::size_t cells = 0;
  std::size_t nonzeros = 0;
  double triplet_assembly_ms = 0.0;  ///< legacy path: builder + sort per pass
  double structure_build_ms = 0.0;   ///< cached path: one-time symbolic build
  double boundary_update_ms = 0.0;   ///< cached path: per-pass rewrite
  std::vector<ThreadTiming> timings;
};

/// Rebuild-from-triplets cost the old Picard loop paid on every pass.
double legacy_assembly_ms(const an::CsrMatrix& pattern, int reps) {
  return time_ms(reps, [&] {
    an::SparseBuilder b(pattern.rows(), pattern.cols());
    for (std::size_t i = 0; i < pattern.rows(); ++i)
      for (std::size_t k = pattern.row_ptr()[i]; k < pattern.row_ptr()[i + 1]; ++k)
        b.add(i, pattern.col_idx()[k], pattern.values()[k]);
    const an::CsrMatrix rebuilt = b.build();
    (void)rebuilt;
  });
}

void write_json(const std::string& path, std::size_t hardware,
                const std::vector<std::size_t>& thread_counts,
                const std::vector<double>& dispatch_ns,
                const std::vector<GridResult>& grids) {
  std::ofstream out(path);
  if (!out) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"sparse_kernels\",\n";
  out << "  \"hardware_threads\": " << hardware << ",\n";
  out << "  \"thread_counts\": [";
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    out << thread_counts[i] << (i + 1 < thread_counts.size() ? ", " : "");
  out << "],\n  \"dispatch_overhead_ns\": [\n";
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    out << "    {\"threads\": " << thread_counts[i] << ", \"ns\": " << dispatch_ns[i]
        << "}" << (i + 1 < thread_counts.size() ? ",\n" : "\n");
  out << "  ],\n  \"grids\": [\n";
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const GridResult& r = grids[g];
    out << "    {\n      \"n\": " << r.n << ", \"cells\": " << r.cells
        << ", \"nonzeros\": " << r.nonzeros << ",\n";
    out << "      \"triplet_assembly_ms\": " << r.triplet_assembly_ms
        << ", \"structure_build_ms\": " << r.structure_build_ms
        << ", \"boundary_update_ms\": " << r.boundary_update_ms << ",\n";
    out << "      \"threads\": [\n";
    for (std::size_t t = 0; t < r.timings.size(); ++t) {
      const ThreadTiming& tt = r.timings[t];
      out << "        {\"threads\": " << tt.threads << ", \"spmv_ms\": " << tt.spmv_ms
          << ", \"cg_ms\": " << tt.cg_ms << ", \"cg_iterations\": " << tt.cg_iterations
          << ", \"steady_ms\": " << tt.steady_ms
          << ", \"steady_speedup_vs_1\": "
          << (tt.steady_ms > 0.0 ? r.timings.front().steady_ms / tt.steady_ms : 0.0) << "}"
          << (t + 1 < r.timings.size() ? ",\n" : "\n");
    }
    out << "      ]\n    }" << (g + 1 < grids.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("  series written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  // --smoke: smallest grid + fixed {1,2} thread sweep, the configuration the
  // CI bench-smoke job freezes counter expectations for (bench/expected/).
  // --scaling: 32^3 only, threads {1, 2} — the cheap configuration the CI
  // speedup-floor gate (tools/check_report.py --speedups) runs against;
  // writes BENCH_sparse_scaling.json.
  // --report <out.json>: enable telemetry and write the obs run report.
  bool smoke = false;
  bool scaling = false;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--scaling") {
      scaling = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(std::string("--report=").size());
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s (supported: --smoke, --scaling, --report <out.json>)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (!report_path.empty()) obs::enable();

  std::printf("\n================================================================\n");
  std::printf("BENCH-SPARSE — multithreaded sparse kernels + FV assembly caching\n");
  std::printf("SpMV / CG / steady FV solve vs grid size and AEROPACK_THREADS\n");
  std::printf("================================================================\n");

  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hardware > 4) thread_counts.push_back(hardware);
  std::vector<std::size_t> sizes{8, 16, 32, 64};
  if (smoke) {
    sizes = {8};
    thread_counts = {1, 2};
    std::printf("  smoke mode: n=8^3 only, threads {1, 2}\n");
  } else if (scaling) {
    sizes = {32};
    thread_counts = {1, 2};
    std::printf("  scaling mode: n=32^3 only, threads {1, 2}\n");
  }
  std::printf("  hardware threads: %zu\n\n", hardware);

  std::printf("  dispatch overhead (empty parallel dispatch, warm pool):\n");
  std::vector<double> dispatch_ns;
  for (const std::size_t t : thread_counts) {
    dispatch_ns.push_back(dispatch_overhead_ns(t));
    std::printf("    threads=%zu  %8.0f ns\n", t, dispatch_ns.back());
  }
  std::printf("\n");

  std::vector<GridResult> results;

  for (const std::size_t n : sizes) {
    GridResult res;
    res.n = n;
    res.cells = n * n * n;
    // Median-of-k needs k >= 5 on every cell — the former single-shot 64^3
    // timing is exactly what made speedup columns unreproducible.
    const int reps = 5;

    const at::FvModel model = make_model(n);

    an::set_thread_count(1);
    at::FvOptions opts;

    // 7-point matrix equivalent to the FV system for kernel micro-benches.
    {
      an::SparseBuilder b(res.cells, res.cells);
      const auto idx = [n](std::size_t i, std::size_t j, std::size_t k) {
        return i + n * (j + n * k);
      };
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t j = 0; j < n; ++j)
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t c = idx(i, j, k);
            double diag = 1e-3;  // boundary film-like shift keeps it SPD
            const auto nb = [&](std::size_t q) {
              b.add(c, q, -1.0);
              diag += 1.0;
            };
            if (i > 0) nb(idx(i - 1, j, k));
            if (i + 1 < n) nb(idx(i + 1, j, k));
            if (j > 0) nb(idx(i, j - 1, k));
            if (j + 1 < n) nb(idx(i, j + 1, k));
            if (k > 0) nb(idx(i, j, k - 1));
            if (k + 1 < n) nb(idx(i, j, k + 1));
            b.add(c, c, diag);
          }
      const an::CsrMatrix a = b.build();
      res.nonzeros = a.nonzeros();
      res.triplet_assembly_ms = legacy_assembly_ms(a, reps);

      an::Vector x(res.cells, 1.0);
      an::Vector rhs(res.cells, 1.0);
      for (const std::size_t t : thread_counts) {
        an::set_thread_count(t);
        ThreadTiming tt;
        tt.threads = t;
        tt.spmv_ms = time_ms(std::max(reps, 3), [&] {
          const an::Vector y = a.multiply(x);
          (void)y;
        });
        an::IterativeResult cg;
        tt.cg_ms = time_ms(reps, [&] { cg = an::conjugate_gradient(a, rhs); });
        tt.cg_iterations = cg.iterations;
        tt.steady_ms = time_ms(reps, [&] {
          const auto sol = model.solve_steady(opts);
          (void)sol;
        });
        res.timings.push_back(tt);
      }
    }

    // Cached-assembly costs, measured through a transient micro-march: the
    // first step pays the structure build, subsequent steps only the
    // boundary rewrite. Separate them by comparing 2-step and 12-step runs.
    an::set_thread_count(1);
    {
      const double t2 = time_ms(reps, [&] {
        const auto tr = model.solve_transient(2.0, 1.0, 300.0, opts);
        (void)tr;
      });
      const double t12 = time_ms(reps, [&] {
        const auto tr = model.solve_transient(12.0, 1.0, 300.0, opts);
        (void)tr;
      });
      // 10 extra steps of (boundary rewrite + warm CG); the per-step cost
      // bounds the boundary update from above.
      res.boundary_update_ms = std::max(0.0, (t12 - t2) / 10.0);
      res.structure_build_ms = std::max(0.0, t2 - 2.0 * res.boundary_update_ms);
    }

    results.push_back(res);
    std::printf("  n=%2zu^3 (%7zu cells, %8zu nnz): triplet rebuild %8.3f ms/pass, "
                "cached boundary rewrite+step %8.3f ms\n",
                n, res.cells, res.nonzeros, res.triplet_assembly_ms, res.boundary_update_ms);
  }
  an::set_thread_count(0);

  std::printf("\n  %-8s | %-8s | %-10s | %-10s | %-12s | %-10s\n", "grid", "threads",
              "spmv [ms]", "cg [ms]", "steady [ms]", "speedup");
  std::printf("  ---------+----------+------------+------------+--------------+----------\n");
  for (const GridResult& r : results)
    for (const ThreadTiming& tt : r.timings)
      std::printf("  %2zu^3     | %8zu | %10.3f | %10.3f | %12.3f | %9.2fx\n", r.n, tt.threads,
                  tt.spmv_ms, tt.cg_ms, tt.steady_ms,
                  tt.steady_ms > 0.0 ? r.timings.front().steady_ms / tt.steady_ms : 0.0);

  const GridResult& big = results.back();
  const auto four = std::find_if(big.timings.begin(), big.timings.end(),
                                 [](const ThreadTiming& t) { return t.threads == 4; });
  if (four != big.timings.end() && four->steady_ms > 0.0)
    std::printf("\n  headline: %zu^3 steady solve %.2fx at 4 threads vs 1 thread"
                " (%zu hardware threads available)\n",
                big.n, big.timings.front().steady_ms / four->steady_ms, hardware);
  std::printf("  headline: structure caching removes %.3f ms of triplet rebuild per"
              " Picard pass on %zu^3\n\n",
              big.triplet_assembly_ms, big.n);

  write_json(scaling ? "BENCH_sparse_scaling.json" : "BENCH_sparse_kernels.json", hardware,
             thread_counts, dispatch_ns, results);

  if (!report_path.empty()) {
    obs::Report report = obs::Report::capture("bench_sparse_kernels", an::thread_count());
    report.set_meta("smoke", smoke ? 1.0 : 0.0);
    report.set_meta("largest_cells", static_cast<double>(results.back().cells));
    report.set_meta("largest_nonzeros", static_cast<double>(results.back().nonzeros));
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
