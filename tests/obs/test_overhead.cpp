// Dormant-telemetry overhead contract: the instrumented CG hot loop on a
// 64^3 7-point Laplacian must cost the same with telemetry compiled in but
// dormant as with it fully enabled — within run-to-run noise (<2%). Every
// instrumentation site in the loop is one relaxed atomic load and branch, so
// if this fails the null-registry fast path has regressed.
//
// Paired, order-alternating timing: each repetition times one dormant and
// one enabled solve back to back (swapping which goes first on every rep, so
// monotonic machine drift — frequency scaling, a noisy neighbor ramping up —
// cannot systematically tax one side), and the assertion takes the best
// paired ratio: a single quiet repetition proves the instrumentation itself
// is cheap, while a genuine hot-path regression inflates every pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

#include "numeric/sparse.hpp"
#include "obs/registry.hpp"

namespace an = aeropack::numeric;
namespace obs = aeropack::obs;

namespace {

/// SPD 7-point stencil on an n^3 grid: -1 per neighbor, neighbors + 1/2 on
/// the diagonal. Columns emitted in ascending order (CSR invariant).
an::CsrMatrix laplacian_3d(std::size_t n) {
  const std::size_t total = n * n * n;
  const std::size_t sxy = n * n;
  std::vector<std::size_t> row_ptr(total + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(7 * total);
  values.reserve(7 * total);
  const auto cell = [n, sxy](std::size_t i, std::size_t j, std::size_t k) {
    return i + n * j + sxy * k;
  };
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = cell(i, j, k);
        double diag = 0.5;
        const auto neighbor = [&](std::size_t col) {
          col_idx.push_back(col);
          values.push_back(-1.0);
          diag += 1.0;
        };
        if (k > 0) neighbor(c - sxy);
        if (j > 0) neighbor(c - n);
        if (i > 0) neighbor(c - 1);
        const std::size_t dpos = values.size();
        col_idx.push_back(c);
        values.push_back(0.0);
        if (i + 1 < n) neighbor(c + 1);
        if (j + 1 < n) neighbor(c + n);
        if (k + 1 < n) neighbor(c + sxy);
        values[dpos] = diag;
        row_ptr[c + 1] = values.size();
      }
  return an::CsrMatrix(total, total, std::move(row_ptr), std::move(col_idx),
                       std::move(values));
}

double time_solve_seconds(const an::CsrMatrix& a, const an::Vector& b,
                          const an::IterativeOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  const an::IterativeResult res = an::conjugate_gradient(a, b, opts);
  const auto t1 = std::chrono::steady_clock::now();
  // tolerance 0 pins the work: every timed solve runs max_iterations.
  EXPECT_EQ(res.iterations, opts.max_iterations);
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

TEST(ObsOverhead, DormantTelemetryIsFreeOnCg64) {
  // Nothing is bound, so the solves run serially: the tightest timing
  // variance.
  const an::CsrMatrix a = laplacian_3d(64);
  const an::Vector b(a.rows(), 1.0);
  an::IterativeOptions opts;
  opts.tolerance = 0.0;  // never converges early: fixed iteration count
  opts.max_iterations = 150;

  obs::disable();
  time_solve_seconds(a, b, opts);  // warm caches

  const auto timed_dormant = [&] {
    obs::disable();
    return time_solve_seconds(a, b, opts);
  };
  const auto timed_enabled = [&] {
    obs::enable();
    obs::Registry::instance().reset();
    return time_solve_seconds(a, b, opts);
  };

  constexpr int kReps = 6;
  double best_ratio = 1e300;
  double last_dormant = 0.0, last_enabled = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    if (rep % 2 == 0) {
      last_dormant = timed_dormant();
      last_enabled = timed_enabled();
    } else {
      last_enabled = timed_enabled();
      last_dormant = timed_dormant();
    }
    ASSERT_GT(last_dormant, 0.0);
    best_ratio = std::min(best_ratio, last_enabled / last_dormant);
  }
  obs::disable();

  // Fully-enabled telemetry bounds the dormant fast path from above: if even
  // live counters cost <2% in the quietest paired repetition, the dormant
  // branch is certainly in the noise.
  EXPECT_LT(best_ratio, 1.02) << "telemetry overhead on 64^3 CG: best paired ratio "
                              << best_ratio << " (last pair: dormant " << last_dormant
                              << " s/solve, enabled " << last_enabled << " s/solve)";
}
