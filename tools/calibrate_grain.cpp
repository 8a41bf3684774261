// calibrate_grain — measure the dispatch overhead and per-element kernel
// costs that back the numeric::grain thresholds, and print a replacement
// constants block for src/numeric/grain.hpp.
//
// Method:
//  1. Warm dispatch round-trip: median time of an empty ThreadPool::run()
//     (one no-op task per thread) on a warm pool, per thread count. This is
//     the latency a kernel must amortize before fanning out.
//  2. Per-element cost of each grain::Cost class, measured serially on
//     resident data (median of repeated sweeps): stream (axpy), dot
//     (chunked reduction), SpMV per nonzero (7-point Poisson), block SpMV
//     per nonzero and column (16 columns), FV cell fill proxy, fused CG
//     update.
//  3. kMinWorkToFanOut = dispatch round-trip at 2 threads expressed in
//     stream elements, times a 4x margin (fan out only when the win is
//     clear); kMinWorkPerThread = half of it. Both rounded up to a power of
//     two. Cost weights = class cost / stream cost.
//
// Usage: ./calibrate_grain [--threads N]   (default: up to 8)
// Paste the printed block over the constants in src/numeric/grain.hpp if it
// differs materially from what is checked in.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"

namespace an = aeropack::numeric;
using Clock = std::chrono::steady_clock;

namespace {

double median_ns(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median wall time of `reps` calls to fn(), in nanoseconds per call.
template <typename Fn>
double time_median_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  return median_ns(samples);
}

volatile double g_sink = 0.0;  // defeat dead-code elimination

an::CsrMatrix poisson3d(std::size_t n) {
  an::SparseBuilder b(n * n * n, n * n * n);
  const auto id = [n](std::size_t i, std::size_t j, std::size_t k) {
    return i + n * (j + n * k);
  };
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = id(i, j, k);
        b.add(c, c, 6.0);
        if (i > 0) b.add(c, id(i - 1, j, k), -1.0);
        if (i + 1 < n) b.add(c, id(i + 1, j, k), -1.0);
        if (j > 0) b.add(c, id(i, j - 1, k), -1.0);
        if (j + 1 < n) b.add(c, id(i, j + 1, k), -1.0);
        if (k > 0) b.add(c, id(i, j, k - 1), -1.0);
        if (k + 1 < n) b.add(c, id(i, j, k + 1), -1.0);
      }
  return b.build();
}

std::size_t round_up_pow2(double v) {
  std::size_t p = 1;
  while (static_cast<double>(p) < v) p <<= 1;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_threads = 8;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      max_threads = static_cast<std::size_t>(std::atol(argv[++i]));

  constexpr int kReps = 101;
  const std::function<void(std::size_t)> noop = [](std::size_t) {};

  std::printf("# grain calibration (%d-rep medians)\n", kReps);
  std::printf("#\n# dispatch round-trip (empty run, warm pool):\n");
  double dispatch2_ns = 0.0;
  for (std::size_t t = 1; t <= max_threads; t *= 2) {
    an::ThreadPool pool(t);
    // Warm the pool so workers sit in the spin phase, not cold-parked.
    for (int w = 0; w < 32; ++w) pool.run(t, noop);
    const double ns = time_median_ns(kReps, [&] { pool.run(t, noop); });
    if (t == 2) dispatch2_ns = ns;
    std::printf("#   threads=%zu  %.0f ns\n", t, ns);
  }
  if (dispatch2_ns == 0.0) dispatch2_ns = 1000.0;  // single-core machine

  // Per-element serial costs on resident data: nothing is bound to this
  // thread, so every kernel runs serially.
  const std::size_t n_vec = 1 << 16;
  an::Vector x(n_vec, 1.0), y(n_vec, 2.0), z(n_vec), inv_d(n_vec, 0.5);
  an::Vector r(n_vec, 1.0), p(n_vec, 0.5), ap(n_vec, 0.25), xs(n_vec, 0.0);

  const double stream_ns =
      time_median_ns(kReps, [&] { an::parallel_axpy(1e-9, x, y); }) /
      static_cast<double>(n_vec);
  const double dot_ns =
      time_median_ns(kReps, [&] { g_sink = an::parallel_dot(x, y); }) /
      static_cast<double>(n_vec);
  const double fused_ns =
      time_median_ns(kReps, [&] {
        const an::CgFused f = an::cg_fused_update(1e-9, p, ap, inv_d, xs, r, z);
        g_sink = f.rr + f.rz;
      }) /
      static_cast<double>(n_vec);

  const an::CsrMatrix a = poisson3d(32);
  an::Vector v(a.cols(), 1.0), av;
  const double spmv_ns =
      time_median_ns(kReps, [&] { a.multiply(v, av); }) /
      static_cast<double>(a.nonzeros());
  constexpr std::size_t kBlockColumns = 16;
  const std::vector<double> vb(a.cols() * kBlockColumns, 1.0);
  std::vector<double> avb;
  const double spmv_block_ns =
      time_median_ns(kReps, [&] { a.multiply_block(vb, avb, kBlockColumns); }) /
      static_cast<double>(a.nonzeros() * kBlockColumns);
  // FV cell proxy: the 7-point conductance fill is ~6x a stream element on
  // the machines measured so far; derive it from the SpMV row cost (7 nnz
  // per interior row plus indexing) rather than linking the thermal layer.
  const double cell_ns = 7.0 * spmv_ns;

  std::printf("#\n# per-element costs (serial, resident):\n");
  std::printf("#   stream  %.3f ns\n#   dot     %.3f ns\n", stream_ns, dot_ns);
  std::printf("#   spmv    %.3f ns/nnz\n#   spmvblk %.3f ns/(nnz x column)\n",
              spmv_ns, spmv_block_ns);
  std::printf("#   cell    %.3f ns (proxy)\n", cell_ns);
  std::printf("#   fusedcg %.3f ns\n", fused_ns);

  const double fan_out_elems = 4.0 * dispatch2_ns / stream_ns;
  const std::size_t min_fan_out = round_up_pow2(fan_out_elems);
  std::printf("#\n# paste over the constants in src/numeric/grain.hpp:\n");
  std::printf("inline constexpr double kMinWorkToFanOut = %zu.0;\n",
              min_fan_out);
  std::printf("inline constexpr double kMinWorkPerThread = %zu.0;\n",
              min_fan_out / 2);
  std::printf("# cost_weight suggestions (stream = 1.0):\n");
  std::printf("#   kDot %.1f  kSpmv %.1f  kCell %.1f  kFusedCg %.1f  kSpmvBlock %.1f\n",
              dot_ns / stream_ns, spmv_ns / stream_ns, cell_ns / stream_ns,
              fused_ns / stream_ns, spmv_block_ns / stream_ns);
  return 0;
}
