// BENCH-FEM-ASSEMBLY — shared DofMap/SparseAssembler layer + modal path.
//
// Sweeps the Fig. 2 power-supply board across mesh refinements and thread
// counts, timing the CSR assembly (DofMap + triplet scatter + build) and
// the shift-invert modal solve. Emits BENCH_fem_assembly.json
// (machine-readable, with the hardware threads, build type, compiler and
// source commit it was recorded with) so later changes can track the perf
// trajectory, plus the usual table on stdout.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fem/modal.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "obs/report.hpp"

namespace af = aeropack::fem;
namespace am = aeropack::materials;
namespace an = aeropack::numeric;
namespace obs = aeropack::obs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Median-of-reps wall time of fn() in milliseconds. Medians (not best-of)
/// because the table's cross-thread columns are compared with one another:
/// a lucky best-of outlier in either operand made them noise. Callers pass
/// reps >= 5.
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

/// The Fig. 2 power-supply board (clamped, smeared + point masses, doubler)
/// at an arbitrary mesh refinement.
af::PlateModel ps_board(std::size_t nx, std::size_t ny) {
  af::PlateModel p(0.16, 0.10, 1.6e-3, am::fr4(), nx, ny);
  p.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  p.add_smeared_mass(2.5);
  p.add_point_mass(0.05, 0.05, 0.18);
  p.add_point_mass(0.11, 0.05, 0.09);
  p.add_doubler(0.03, 0.13, 0.02, 0.08, 2.0);
  return p;
}

struct ThreadTiming {
  std::size_t threads = 1;
  double sparse_modal_ms = 0.0;
};

struct MeshResult {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::size_t free_dofs = 0;
  std::size_t nonzeros = 0;
  double assembly_ms = 0.0;  ///< DofMap + element scatter + CSR build
  std::vector<ThreadTiming> timings;
};

/// `git describe --always --dirty` of the source tree, or "unknown".
std::string source_commit() {
  std::string out;
  if (FILE* pipe = popen("git -C '" AEROPACK_SOURCE_DIR "' describe --always --dirty 2>/dev/null",
                         "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

void write_json(const std::string& path, std::size_t hardware, std::size_t n_modes,
                const std::vector<std::size_t>& thread_counts,
                const std::vector<double>& dispatch_ns,
                const std::vector<MeshResult>& meshes) {
  const std::string commit = source_commit();  // before the write dirties the tree
  std::ofstream out(path);
  if (!out) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"fem_assembly\",\n";
  out << "  \"hardware_threads\": " << hardware << ",\n";
  out << "  \"build_type\": \"" << AEROPACK_BUILD_TYPE << "\",\n";
  out << "  \"compiler\": \"" << AEROPACK_COMPILER << "\",\n";
  out << "  \"commit\": \"" << commit << "\",\n";
  out << "  \"n_modes\": " << n_modes << ",\n";
  out << "  \"dispatch_overhead_ns\": [";
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    out << "{\"threads\": " << thread_counts[i] << ", \"ns\": " << dispatch_ns[i] << "}"
        << (i + 1 < thread_counts.size() ? ", " : "");
  out << "],\n  \"thread_counts\": [";
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    out << thread_counts[i] << (i + 1 < thread_counts.size() ? ", " : "");
  out << "],\n  \"meshes\": [\n";
  for (std::size_t g = 0; g < meshes.size(); ++g) {
    const MeshResult& r = meshes[g];
    out << "    {\n      \"nx\": " << r.nx << ", \"ny\": " << r.ny
        << ", \"free_dofs\": " << r.free_dofs << ", \"nonzeros\": " << r.nonzeros << ",\n";
    out << "      \"assembly_ms\": " << r.assembly_ms << ",\n";
    out << "      \"threads\": [\n";
    for (std::size_t t = 0; t < r.timings.size(); ++t) {
      const ThreadTiming& tt = r.timings[t];
      out << "        {\"threads\": " << tt.threads
          << ", \"sparse_modal_ms\": " << tt.sparse_modal_ms << "}"
          << (t + 1 < r.timings.size() ? ",\n" : "\n");
    }
    out << "      ]\n    }" << (g + 1 < meshes.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("  series written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  // --smoke: coarsest mesh + fixed {1,2} thread sweep, the configuration the
  // CI bench-smoke job freezes counter expectations for (bench/expected/).
  // --report <out.json>: enable telemetry and write the obs run report.
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
  std::printf("BENCH-FEM-ASSEMBLY — DofMap/SparseAssembler + modal path\n");
  std::printf("CSR assembly / shift-invert modal solve vs mesh and threads\n");
  std::printf("================================================================\n");

  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hardware > 4) thread_counts.push_back(hardware);
  const std::size_t n_modes = 8;
  std::vector<std::pair<std::size_t, std::size_t>> sizes{
      {8, 5}, {12, 8}, {16, 10}, {20, 13}, {24, 15}};
  if (smoke) {
    sizes = {{8, 5}};
    thread_counts = {1, 2};
    std::printf("  smoke mode: 8x5 mesh only, threads {1, 2}\n");
  }
  std::printf("  hardware threads: %zu, modes requested: %zu\n\n", hardware, n_modes);

  std::printf("  dispatch overhead (empty parallel dispatch, warm pool):\n");
  std::vector<double> dispatch_ns;
  for (const std::size_t t : thread_counts) {
    dispatch_ns.push_back(dispatch_overhead_ns(t));
    std::printf("    threads=%zu %9.0f ns\n", t, dispatch_ns.back());
  }
  std::printf("\n");

  std::vector<MeshResult> results;

  for (const auto& [nx, ny] : sizes) {
    MeshResult res;
    res.nx = nx;
    res.ny = ny;
    const af::PlateModel plate = ps_board(nx, ny);
    // Medians need odd reps >= 5. Smoke stays at 5: the frozen counter
    // expectations (bench/expected/) count iterations across all reps.
    const int reps = smoke ? 5 : (nx <= 12 ? 7 : 5);

    an::CsrMatrix k, m;
    res.assembly_ms = time_ms(std::max(reps, 3), [&] { plate.reduced_sparse(k, m); });
    res.free_dofs = k.rows();
    res.nonzeros = k.nonzeros();

    af::ModalOptions opts;
    opts.n_modes = n_modes;
    for (const std::size_t t : thread_counts) {
      const bench_util::BoundPool bind(t);
      ThreadTiming tt;
      tt.threads = t;
      tt.sparse_modal_ms = time_ms(reps, [&] {
        const auto modes = plate.solve_modal(opts);
        (void)modes;
      });
      res.timings.push_back(tt);
    }
    results.push_back(res);
    std::printf("  %2zux%-2zu (%4zu free dofs, %7zu nnz): assembly %7.3f ms, "
                "modal@1t %8.3f ms\n",
                nx, ny, res.free_dofs, res.nonzeros, res.assembly_ms,
                res.timings.front().sparse_modal_ms);
  }

  std::printf("\n  %-8s | %-9s | %-8s | %-12s\n", "mesh", "free dof", "threads", "modal [ms]");
  std::printf("  ---------+-----------+----------+-------------\n");
  for (const MeshResult& r : results)
    for (const ThreadTiming& tt : r.timings)
      std::printf("  %2zux%-5zu | %9zu | %8zu | %12.3f\n", r.nx, r.ny, r.free_dofs, tt.threads,
                  tt.sparse_modal_ms);
  std::printf("\n");

  write_json("BENCH_fem_assembly.json", hardware, n_modes, thread_counts, dispatch_ns, results);

  if (!report_path.empty()) {
    obs::Report report = obs::Report::capture("bench_fem_assembly", an::thread_count());
    report.set_meta("smoke", smoke ? 1.0 : 0.0);
    report.set_meta("largest_free_dofs", static_cast<double>(results.back().free_dofs));
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
