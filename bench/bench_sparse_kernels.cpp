// BENCH-SPARSE — multithreaded sparse kernels, FV assembly caching and the
// multigrid preconditioner.
//
// Sweeps FV grid sizes (8^3 -> 64^3) and thread counts, timing the hot
// kernels the Picard/transient loops sit on: SpMV, preconditioned CG, the
// one-time structure assembly vs the per-pass boundary rewrite (both read
// from their obs spans), and the full steady FV solve. On every grid it
// also solves the model's linearize_steady() system with Jacobi-CG and with
// AMG-preconditioned CG (numeric/amg.hpp) through the numeric API, and
// prints the measured Jacobi/AMG crossover; the full sweep adds the four
// solver stress cases (verify/solver_cases.hpp), the slab and graded cubes
// from 16^3 to 64^3 and the graded-k MMS rungs. The full sweep also times
// SpMV and Jacobi-CG on the model's own stencil operator against its
// to_csr() at every thread count, and fails if the two CG solutions differ
// in any bit. Emits BENCH_sparse_kernels.json (machine-readable) so later
// changes can track the perf trajectory, plus the usual table on stdout.
//
// Headline numbers: steady-solve speedup at 4 threads vs 1 thread on the
// largest grid measured, the assembly time removed per Picard pass by
// structure caching on that grid, and the AMG crossover.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "materials/solid.hpp"
#include "numeric/amg.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "numeric/stencil.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "thermal/fv.hpp"
#include "verify/mms.hpp"
#include "verify/solver_cases.hpp"

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

/// Jacobi-CG vs AMG-PCG on one FV linear system at one thread count.
struct SolverTiming {
  std::size_t threads = 1;
  double jacobi_ms = 0.0;
  std::size_t jacobi_iterations = 0;
  double amg_ms = 0.0;  ///< workspace + refresh + solve: the per-solve cost
  std::size_t amg_iterations = 0;
};

struct SolverComparison {
  std::string name;
  std::size_t cells = 0;
  double amg_setup_ms = 0.0;  ///< hierarchy build (serial, once per assembly)
  std::vector<SolverTiming> timings;

  /// AMG faster than Jacobi at every measured thread count.
  bool amg_wins() const {
    for (const SolverTiming& t : timings)
      if (!(t.amg_ms < t.jacobi_ms)) return false;
    return true;
  }
};

/// Solve `model`'s linearize_steady() system with both preconditioners at
/// each thread count (median of `reps`).
SolverComparison compare_solvers(const std::string& name, const at::FvModel& model,
                                 const std::vector<std::size_t>& thread_counts, int reps) {
  SolverComparison out;
  out.name = name;
  const at::LinearSteadySystem sys = model.linearize_steady();
  out.cells = sys.rhs.size();
  out.amg_setup_ms = time_ms(reps, [&] { const an::AmgHierarchy h(sys.matrix); });
  const an::AmgHierarchy hierarchy(sys.matrix);
  for (const std::size_t t : thread_counts) {
    const bench_util::BoundPool bind(t);
    SolverTiming st;
    st.threads = t;
    an::IterativeResult jacobi, amg;
    st.jacobi_ms = time_ms(reps, [&] { jacobi = an::conjugate_gradient(sys.matrix, sys.rhs); });
    st.amg_ms = time_ms(reps, [&] {
      an::AmgWorkspace ws(hierarchy);
      amg = an::conjugate_gradient(sys.matrix, sys.rhs, {}, nullptr, &ws);
    });
    if (!jacobi.converged || !amg.converged)
      throw std::runtime_error("compare_solvers: " + name + " did not converge");
    st.jacobi_iterations = jacobi.iterations;
    st.amg_iterations = amg.iterations;
    out.timings.push_back(st);
  }
  return out;
}

/// One operator in both storage forms at one thread count.
struct FormTiming {
  std::size_t threads = 1;
  double spmv_stencil_ms = 0.0;
  double spmv_csr_ms = 0.0;
  double cg_stencil_ms = 0.0;
  double cg_csr_ms = 0.0;
  std::size_t cg_iterations = 0;
};

/// SpMV and Jacobi-CG on `model`'s steady operator as the solver runs it —
/// the assembly's stencil with the boundary-rewritten diagonal — and on its
/// to_csr(), at each thread count (median of `reps`). Throws when the two
/// CG solutions differ in any bit.
std::vector<FormTiming> compare_forms(const at::FvModel& model,
                                      const std::vector<std::size_t>& thread_counts, int reps) {
  const at::LinearSteadySystem sys = model.linearize_steady();
  an::StencilMatrix stencil = model.build_assembly()->matrix;
  stencil.diagonal() = sys.matrix.diagonal();
  const an::CsrMatrix csr = stencil.to_csr();
  const an::Vector x(sys.rhs.size(), 1.0);
  std::vector<FormTiming> out;
  for (const std::size_t t : thread_counts) {
    const bench_util::BoundPool bind(t);
    FormTiming ft;
    ft.threads = t;
    an::Vector y;
    ft.spmv_stencil_ms = time_ms(reps, [&] { stencil.multiply(x, y); });
    ft.spmv_csr_ms = time_ms(reps, [&] { csr.multiply(x, y); });
    an::IterativeResult on_stencil, on_csr;
    ft.cg_stencil_ms =
        time_ms(reps, [&] { on_stencil = an::conjugate_gradient(stencil, sys.rhs); });
    ft.cg_csr_ms = time_ms(reps, [&] { on_csr = an::conjugate_gradient(csr, sys.rhs); });
    if (!on_stencil.converged || on_stencil.iterations != on_csr.iterations ||
        std::memcmp(on_stencil.x.data(), on_csr.x.data(), x.size() * sizeof(double)) != 0)
      throw std::runtime_error("compare_forms: stencil and CSR CG solutions differ");
    ft.cg_iterations = on_stencil.iterations;
    out.push_back(ft);
  }
  return out;
}

/// Milliseconds per call of the span `name` (at any depth) recorded between
/// two snapshots of the timer tree.
double span_ms_per_call(const std::vector<obs::TimerEntry>& before,
                        const std::vector<obs::TimerEntry>& after, const std::string& name) {
  const auto totals = [&](const std::vector<obs::TimerEntry>& entries) {
    std::pair<double, std::uint64_t> sum{0.0, 0};
    for (const obs::TimerEntry& e : entries) {
      const bool match = e.path == name ||
                         (e.path.size() > name.size() &&
                          e.path.compare(e.path.size() - name.size() - 1, std::string::npos,
                                         "/" + name) == 0);
      if (match) {
        sum.first += e.seconds;
        sum.second += e.calls;
      }
    }
    return sum;
  };
  const auto [s0, c0] = totals(before);
  const auto [s1, c1] = totals(after);
  return c1 > c0 ? (s1 - s0) * 1e3 / static_cast<double>(c1 - c0) : 0.0;
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
  double structure_build_ms = 0.0;   ///< fv.assemble_structure span, per call
  double boundary_update_ms = 0.0;   ///< fv.update_boundary span, per call
  std::vector<ThreadTiming> timings;
  SolverComparison fv;  ///< the model's steady system, Jacobi vs AMG
  std::vector<FormTiming> forms;  ///< the same operator as stencil and as CSR
};

/// Smallest measured cell count from which AMG wins at every measured
/// thread count on every measured system of that size or larger — the
/// sweep's grids and the stress cases alike (0 when none qualifies).
std::size_t amg_crossover_cells(const std::vector<GridResult>& grids,
                                const std::vector<SolverComparison>& cases) {
  std::vector<const SolverComparison*> systems;
  for (const GridResult& g : grids)
    if (!g.fv.timings.empty()) systems.push_back(&g.fv);
  for (const SolverComparison& c : cases) systems.push_back(&c);
  std::vector<std::size_t> sizes;
  for (const SolverComparison* s : systems) sizes.push_back(s->cells);
  std::sort(sizes.rbegin(), sizes.rend());
  std::size_t crossover = 0;
  for (const std::size_t size : sizes) {
    for (const SolverComparison* s : systems)
      if (s->cells >= size && !s->amg_wins()) return crossover;
    crossover = size;
  }
  return crossover;
}

void write_comparison(std::ofstream& out, const SolverComparison& c, const char* indent) {
  out << indent << "\"amg_setup_ms\": " << c.amg_setup_ms << ",\n";
  out << indent << "\"solvers\": [\n";
  for (std::size_t t = 0; t < c.timings.size(); ++t) {
    const SolverTiming& st = c.timings[t];
    out << indent << "  {\"threads\": " << st.threads << ", \"jacobi_ms\": " << st.jacobi_ms
        << ", \"jacobi_iterations\": " << st.jacobi_iterations
        << ", \"amg_ms\": " << st.amg_ms << ", \"amg_iterations\": " << st.amg_iterations
        << "}" << (t + 1 < c.timings.size() ? ",\n" : "\n");
  }
  out << indent << "]";
}

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
                const std::vector<GridResult>& grids,
                const std::vector<SolverComparison>& cases) {
  std::ofstream out(path);
  if (!out) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"sparse_kernels\",\n";
  out << "  \"hardware_threads\": " << hardware << ",\n";
  out << "  \"amg_crossover_cells\": " << amg_crossover_cells(grids, cases) << ",\n";
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
    out << "      ]";
    if (!r.forms.empty()) {
      out << ",\n      \"stencil_vs_csr\": [\n";
      for (std::size_t t = 0; t < r.forms.size(); ++t) {
        const FormTiming& f = r.forms[t];
        out << "        {\"threads\": " << f.threads
            << ", \"spmv_stencil_ms\": " << f.spmv_stencil_ms
            << ", \"spmv_csr_ms\": " << f.spmv_csr_ms
            << ", \"cg_stencil_ms\": " << f.cg_stencil_ms
            << ", \"cg_csr_ms\": " << f.cg_csr_ms
            << ", \"cg_iterations\": " << f.cg_iterations << "}"
            << (t + 1 < r.forms.size() ? ",\n" : "\n");
      }
      out << "      ]";
    }
    if (!r.fv.timings.empty()) {
      out << ",\n";
      write_comparison(out, r.fv, "      ");
    }
    out << "\n    }" << (g + 1 < grids.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"cases\": [\n";
  for (std::size_t c = 0; c < cases.size(); ++c) {
    out << "    {\n      \"name\": \"" << cases[c].name << "\", \"cells\": " << cases[c].cells
        << ",\n";
    write_comparison(out, cases[c], "      ");
    out << "\n    }" << (c + 1 < cases.size() ? ",\n" : "\n");
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
  // writes BENCH_sparse_scaling.json. Its 32^3 grid is above the AMG
  // crossover, so its counters (bench/expected/bench_sparse_scaling.*) also
  // gate the multigrid path.
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
  std::printf("SpMV / CG / steady FV solve vs grid size and thread count\n");
  std::printf("================================================================\n");

  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hardware > 4) thread_counts.push_back(hardware);
  // 12^3..24^3 measure the approach to the AMG crossover
  // (thermal::kAmgMinCells).
  std::vector<std::size_t> sizes{8, 12, 16, 20, 24, 32, 48, 64};
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
        const bench_util::BoundPool bind(t);
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

    // Cached-assembly costs, read off the fv.assemble_structure and
    // fv.update_boundary spans of transient micro-marches: each march builds
    // the structure once and rewrites the boundary terms every step.
    {
      const bool telemetry = obs::enabled();
      obs::enable();
      const std::vector<obs::TimerEntry> before = obs::current().timers();
      for (int r = 0; r < reps; ++r) {
        for (const double t_end : {2.0, 12.0}) {
          const auto tr = model.solve_transient(t_end, 1.0, 300.0, opts);
          (void)tr;
        }
      }
      const std::vector<obs::TimerEntry> after = obs::current().timers();
      if (!telemetry) obs::disable();
      res.structure_build_ms = span_ms_per_call(before, after, "fv.assemble_structure");
      res.boundary_update_ms = span_ms_per_call(before, after, "fv.update_boundary");
    }

    // Jacobi vs AMG on the model's steady system. Skipped by --smoke, whose
    // 8^3 grid sits below the crossover and whose counters are frozen.
    if (!smoke) res.fv = compare_solvers("grid", model, thread_counts, reps);
    // Stencil vs CSR on that operator: full sweep only, so the counters the
    // --smoke and --scaling reports freeze stay as they are.
    if (!smoke && !scaling) res.forms = compare_forms(model, thread_counts, reps);

    results.push_back(res);
    std::printf("  n=%2zu^3 (%7zu cells, %8zu nnz): triplet rebuild %8.3f ms/pass, "
                "structure build %8.3f ms, boundary rewrite %8.3f ms\n",
                n, res.cells, res.nonzeros, res.triplet_assembly_ms, res.structure_build_ms,
                res.boundary_update_ms);
  }

  // The full sweep also judges AMG on the four stress cases, the slab and
  // graded cubes from 16^3 to 64^3 and the graded-k MMS rungs; the
  // crossover is taken over all of them.
  std::vector<SolverComparison> cases;
  if (!smoke && !scaling) {
    const std::vector<std::size_t> case_threads{1, 4};
    const int reps = 5;
    for (const auto& c : aeropack::verify::amg_cases())
      cases.push_back(compare_solvers(c.name, c.model, case_threads, reps));
    for (const std::size_t n : {16, 20, 24, 32, 64})
      cases.push_back(compare_solvers("slab_" + std::to_string(n),
                                      aeropack::verify::amg_slab_case(n), case_threads, reps));
    for (const std::size_t n : {16, 20, 24, 32, 48, 64})
      cases.push_back(compare_solvers("graded_cube_" + std::to_string(n),
                                      aeropack::verify::amg_graded_cube_case(n), case_threads,
                                      reps));
    // The graded-k case of the MMS convergence ladder (tests/verify).
    const auto mms = aeropack::verify::mms_graded_k(0.1, 0.12, 0.08, 10.0, 1.5, 300.0, 40.0);
    for (const std::size_t n : {16, 20, 24, 32, 48})
      cases.push_back(compare_solvers("mms_graded_" + std::to_string(n),
                                      aeropack::verify::mms_steady_model(mms, n), case_threads,
                                      reps));
  }

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

  if (!smoke && !scaling) {
    std::printf("  %-8s | %-8s | %-12s | %-12s | %-12s | %-12s | %-6s\n", "operator",
                "threads", "spmv stencil", "spmv csr", "cg stencil", "cg csr", "its");
    std::printf("  ---------+----------+--------------+--------------+--------------+"
                "--------------+-------\n");
    for (const GridResult& r : results)
      for (const FormTiming& f : r.forms)
        std::printf("  %2zu^3     | %8zu | %9.3f ms | %9.3f ms | %9.3f ms | %9.3f ms | %6zu\n",
                    r.n, f.threads, f.spmv_stencil_ms, f.spmv_csr_ms, f.cg_stencil_ms,
                    f.cg_csr_ms, f.cg_iterations);
    std::printf("  (stencil and CSR CG solutions are bitwise identical on every row)\n\n");
  }

  if (!smoke) {
    std::printf("  %-16s | %7s | %8s | %8s | %10s | %7s | %10s | %7s\n", "steady system",
                "cells", "setup ms", "threads", "jacobi ms", "its", "amg ms", "its");
    std::printf("  -----------------+---------+----------+----------+------------+---------+"
                "------------+--------\n");
    const auto print_rows = [](const SolverComparison& c, const std::string& label) {
      for (const SolverTiming& t : c.timings)
        std::printf("  %-16s | %7zu | %8.2f | %8zu | %10.2f | %7zu | %10.2f | %7zu\n",
                    label.c_str(), c.cells, c.amg_setup_ms, t.threads, t.jacobi_ms,
                    t.jacobi_iterations, t.amg_ms, t.amg_iterations);
    };
    for (const GridResult& r : results) print_rows(r.fv, "grid " + std::to_string(r.n) + "^3");
    for (const SolverComparison& c : cases) print_rows(c, c.name);
    std::printf("\n  measured AMG crossover: %zu cells (AMG-PCG beats Jacobi-CG at every "
                "measured thread count on every system this size or larger; "
                "thermal::kAmgMinCells = %zu)\n\n",
                amg_crossover_cells(results, cases), at::kAmgMinCells);
  }

  write_json(scaling ? "BENCH_sparse_scaling.json" : "BENCH_sparse_kernels.json", hardware,
             thread_counts, dispatch_ns, results, cases);

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
