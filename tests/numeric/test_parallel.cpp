// Parallel execution layer: ThreadPool semantics and bit-exact equivalence
// of the parallel kernels across thread counts. Each thread count is an
// ExecutionContext of that many threads; references run with nothing bound,
// which is serial.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/context.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "numeric/stats.hpp"

namespace an = aeropack::numeric;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

/// 3-D 7-point Poisson matrix on an n^3 grid (SPD), via the builder.
an::CsrMatrix poisson3d(std::size_t n) {
  const std::size_t total = n * n * n;
  an::SparseBuilder b(total, total);
  const auto idx = [n](std::size_t i, std::size_t j, std::size_t k) {
    return i + n * (j + n * k);
  };
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = idx(i, j, k);
        b.add(c, c, 6.0 + 1.0);  // +1: keep it SPD with Neumann-like edges
        if (i > 0) b.add(c, idx(i - 1, j, k), -1.0);
        if (i + 1 < n) b.add(c, idx(i + 1, j, k), -1.0);
        if (j > 0) b.add(c, idx(i, j - 1, k), -1.0);
        if (j + 1 < n) b.add(c, idx(i, j + 1, k), -1.0);
        if (k > 0) b.add(c, idx(i, j, k - 1), -1.0);
        if (k + 1 < n) b.add(c, idx(i, j, k + 1), -1.0);
      }
  return b.build();
}

an::Vector random_vector(std::size_t n, unsigned seed) {
  an::Rng rng(seed);
  an::Vector v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

const std::size_t kThreadSweep[] = {1, 2, 8};

}  // namespace

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ExecutionContext ctx(ExecutionConfig{4, false});
  const ExecutionContext::Use bind(ctx);
  std::atomic<int> calls{0};
  ctx.pool().run(0, [&](std::size_t) { ++calls; });
  an::parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  an::parallel_for(7, 3, [&](std::size_t, std::size_t) { ++calls; });  // inverted
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, RangeSmallerThanThreadCountVisitsEachIndexOnce) {
  ExecutionContext ctx(ExecutionConfig{8, false});
  const ExecutionContext::Use bind(ctx);
  std::vector<std::atomic<int>> visits(3);
  an::parallel_for(0, 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++visits[i];
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, LargeRangePartitionCoversEverything) {
  ExecutionContext ctx(ExecutionConfig{5, false});
  const ExecutionContext::Use bind(ctx);
  const std::size_t n = 1003;  // not divisible by 5: uneven chunks
  std::vector<std::atomic<int>> visits(n);
  an::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++visits[i];
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, AlternatingSmallAndLargeJobsVisitEachTaskOnce) {
  // Regression: a worker lingering in the previous job's claim loop used to
  // grab a stale counter value during the next job's setup. A small job
  // followed immediately by a much larger one (the per-CG-iteration
  // parallel_for + chunked-reduce pattern) could then run a task twice and
  // deadlock the completion wait. Hammer that hand-off.
  an::ThreadPool pool(8);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::atomic<int>> small(4);
    pool.run(small.size(), [&](std::size_t t) { ++small[t]; });
    std::vector<std::atomic<int>> large(128);
    pool.run(large.size(), [&](std::size_t t) { ++large[t]; });
    for (const auto& v : small) ASSERT_EQ(v.load(), 1) << "round " << round;
    for (const auto& v : large) ASSERT_EQ(v.load(), 1) << "round " << round;
  }
}

TEST(ThreadPool, FreshPoolRunsItsFirstJobOnEveryThread) {
  // Regression: a worker read the job sequence only once its thread had
  // started, so a run() published before that start was invisible to it and
  // the calling thread ran every task alone. Each task here waits (boundedly) until
  // all three have started, which only happens when every thread joined.
  for (int round = 0; round < 20; ++round) {
    an::ThreadPool pool(3);
    std::atomic<std::size_t> started{0};
    std::atomic<bool> all_started{true};
    pool.run(3, [&](std::size_t) {
      started.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (started.load() < 3) {
        if (std::chrono::steady_clock::now() > deadline) {
          all_started = false;
          return;
        }
        std::this_thread::yield();
      }
    });
    ASSERT_TRUE(all_started.load()) << "round " << round;
  }
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ExecutionContext ctx(ExecutionConfig{4, false});
  const ExecutionContext::Use bind(ctx);
  EXPECT_THROW(an::parallel_for(0, 100,
                                [](std::size_t lo, std::size_t) {
                                  if (lo == 0) throw std::runtime_error("task failed");
                                }),
               std::runtime_error);
  // The pool must stay usable after a throwing job.
  std::atomic<int> sum{0};
  an::parallel_for(0, 10, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, SerialFallbackPropagatesExceptionsDirectly) {
  // Nothing bound: the kernel runs on the worker-less pool, inline.
  EXPECT_THROW(
      an::parallel_for(0, 4, [](std::size_t, std::size_t) { throw std::logic_error("serial"); }),
      std::logic_error);
}

TEST(ParallelKernels, DotAndNormBitIdenticalAcrossThreadCounts) {
  const an::Vector a = random_vector(10000, 1u);
  const an::Vector b = random_vector(10000, 2u);
  const double dot_ref = an::parallel_dot(a, b);
  const double norm_ref = an::parallel_norm2(a);
  for (const std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    EXPECT_EQ(an::parallel_dot(a, b), dot_ref) << t << " threads";
    EXPECT_EQ(an::parallel_norm2(a), norm_ref) << t << " threads";
  }
}

TEST(ParallelKernels, AxpyMatchesSerialExactly) {
  const an::Vector x = random_vector(5000, 3u);
  an::Vector y_ref = random_vector(5000, 4u);
  an::Vector y1 = y_ref;
  an::parallel_axpy(0.37, x, y_ref);
  for (const std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    an::Vector y = y1;
    an::parallel_axpy(0.37, x, y);
    for (std::size_t i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], y_ref[i]) << t << " threads";
  }
}

TEST(ParallelKernels, SpmvEquivalentAcrossThreadCounts) {
  const an::CsrMatrix a = poisson3d(12);  // 1728 rows
  const an::Vector x = random_vector(a.cols(), 5u);
  const an::Vector y_ref = a.multiply(x);
  for (const std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    const an::Vector y = a.multiply(x);
    ASSERT_EQ(y.size(), y_ref.size());
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_NEAR(y[i], y_ref[i], 1e-12) << t << " threads, row " << i;
  }
}

TEST(ParallelKernels, CgEquivalentAcrossThreadCounts) {
  const an::CsrMatrix a = poisson3d(10);  // 1000 unknowns
  const an::Vector b = random_vector(a.rows(), 6u);
  const auto ref = an::conjugate_gradient(a, b);
  ASSERT_TRUE(ref.converged);
  for (const std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    const auto res = an::conjugate_gradient(a, b);
    ASSERT_TRUE(res.converged) << t << " threads";
    EXPECT_EQ(res.iterations, ref.iterations) << t << " threads";
    for (std::size_t i = 0; i < res.x.size(); ++i)
      ASSERT_NEAR(res.x[i], ref.x[i], 1e-12) << t << " threads, entry " << i;
  }
}

TEST(ParallelKernels, WarmStartedCgMatchesColdSolution) {
  ExecutionContext ctx(ExecutionConfig{2, false});
  const ExecutionContext::Use bind(ctx);
  const an::CsrMatrix a = poisson3d(8);
  const an::Vector b = random_vector(a.rows(), 7u);
  const auto cold = an::conjugate_gradient(a, b);
  ASSERT_TRUE(cold.converged);
  // Warm start from a perturbed copy of the solution: same answer, far
  // fewer iterations.
  an::Vector x0 = cold.x;
  for (double& v : x0) v += 1e-6;
  const auto warm = an::conjugate_gradient(a, b, {}, &x0);
  ASSERT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations / 2);
  for (std::size_t i = 0; i < warm.x.size(); ++i) ASSERT_NEAR(warm.x[i], cold.x[i], 1e-8);
}
