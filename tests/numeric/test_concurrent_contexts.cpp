// Concurrent FV solves on isolated ExecutionContexts (TSan-gated under the
// numeric label): two FvModel::solve_steady runs driven from two distinct
// std::threads, each on its own context, must be data-race free and
// bit-identical to the serial runs of the same models. Threads with no
// context bound share one worker-less pool and may solve at the same time.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "exec/context.hpp"
#include "materials/solid.hpp"
#include "numeric/grain.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "thermal/fv.hpp"

namespace an = aeropack::numeric;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

at::FvModel slab(double power_w) {
  at::FvModel m(at::FvGrid::uniform(0.1, 0.02, 0.01, 16, 4, 4));
  m.set_material(am::aluminum_6061());
  m.add_power({0, 16, 0, 4, 0, 4}, power_w);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(320.0));
  return m;
}

/// 3-D 7-point Poisson matrix on an n^3 grid plus the identity (SPD).
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
        b.add(c, c, 7.0);
        if (i > 0) b.add(c, idx(i - 1, j, k), -1.0);
        if (i + 1 < n) b.add(c, idx(i + 1, j, k), -1.0);
        if (j > 0) b.add(c, idx(i, j - 1, k), -1.0);
        if (j + 1 < n) b.add(c, idx(i, j + 1, k), -1.0);
        if (k > 0) b.add(c, idx(i, j, k - 1), -1.0);
        if (k + 1 < n) b.add(c, idx(i, j, k + 1), -1.0);
      }
  return b.build();
}

bool same_solve(const an::IterativeResult& a, const an::IterativeResult& b) {
  return a.iterations == b.iterations && a.converged == b.converged &&
         std::memcmp(&a.residual, &b.residual, sizeof(double)) == 0 && a.x.size() == b.x.size() &&
         std::memcmp(a.x.data(), b.x.data(), a.x.size() * sizeof(double)) == 0;
}

void expect_bit_identical(const an::Vector& got, const an::Vector& want,
                          const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << label << ", cell " << i;
}

}  // namespace

TEST(ConcurrentContexts, TwoSteadySolvesMatchSerialBitForBit) {
  const at::FvModel model_a = slab(5.0);
  const at::FvModel model_b = slab(11.0);

  // Serial references on fresh contexts with the same per-context config.
  ExecutionConfig cfg;
  cfg.threads = 2;
  an::Vector ref_a, ref_b;
  {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    ref_a = model_a.solve_steady().temperatures;
  }
  {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    ref_b = model_b.solve_steady().temperatures;
  }

  // A few rounds so TSan gets real interleavings, not one lucky schedule.
  for (int round = 0; round < 4; ++round) {
    an::Vector got_a, got_b;
    std::thread ta([&] {
      ExecutionContext ctx(cfg);
      const ExecutionContext::Use use(ctx);
      got_a = model_a.solve_steady().temperatures;
    });
    std::thread tb([&] {
      ExecutionContext ctx(cfg);
      const ExecutionContext::Use use(ctx);
      got_b = model_b.solve_steady().temperatures;
    });
    ta.join();
    tb.join();
    expect_bit_identical(got_a, ref_a, "model A");
    expect_bit_identical(got_b, ref_b, "model B");
  }
}

TEST(ConcurrentContexts, ConcurrentTransientMatchesSerial) {
  const at::FvModel model = slab(7.0);
  ExecutionConfig cfg;
  cfg.threads = 2;
  an::Vector ref;
  {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    ref = model.solve_transient(5.0, 1.0, 300.0).temperatures.back();
  }
  an::Vector got_a, got_b;
  std::thread ta([&] {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    got_a = model.solve_transient(5.0, 1.0, 300.0).temperatures.back();
  });
  std::thread tb([&] {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    got_b = model.solve_transient(5.0, 1.0, 300.0).temperatures.back();
  });
  ta.join();
  tb.join();
  expect_bit_identical(got_a, ref, "thread A");
  expect_bit_identical(got_b, ref, "thread B");
}

TEST(ConcurrentContexts, ConcurrentKernelsOnDistinctPoolsAgreeWithSerial) {
  an::Vector x(20000);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.25 + 0.5 * static_cast<double>(i % 97);
  ExecutionConfig cfg;
  cfg.threads = 3;
  double ref = 0.0;
  {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    ref = an::parallel_norm2(x);
  }
  double got_a = 0.0, got_b = 0.0;
  std::thread ta([&] {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    for (int r = 0; r < 50; ++r) got_a = an::parallel_norm2(x);
  });
  std::thread tb([&] {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    for (int r = 0; r < 50; ++r) got_b = an::parallel_norm2(x);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, ref);
  EXPECT_EQ(got_b, ref);
}

TEST(ConcurrentContexts, UnboundThreadsSolveConcurrentlyAndSerially) {
  // Two threads with no context bound each run 20 CG solves with fan-out
  // forced, so a pool with workers would take every kernel through run().
  // Both reach the one worker-less pool, which runs kernels inline and keeps
  // no job state, so every solve returns the bits of the same solve alone.
  const an::CsrMatrix a = poisson3d(12);  // 1728 rows
  an::Vector b(a.rows());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = 1.0 + 0.25 * static_cast<double>(i % 13);
  const an::grain::ScopedForceFanOut force;
  const an::IterativeResult ref = an::conjugate_gradient(a, b);
  ASSERT_TRUE(ref.converged);

  constexpr int kSolves = 20;
  struct Seen {
    const an::ThreadPool* pool = nullptr;
    std::size_t threads = 0;
    int mismatches = 0;
  };
  Seen seen_a, seen_b;
  const auto drive = [&](Seen& seen) {
    seen.pool = &an::current_pool();
    seen.threads = an::thread_count();
    for (int s = 0; s < kSolves; ++s)
      if (!same_solve(an::conjugate_gradient(a, b), ref)) ++seen.mismatches;
  };
  std::thread ta([&] { drive(seen_a); });
  std::thread tb([&] { drive(seen_b); });
  ta.join();
  tb.join();
  EXPECT_EQ(seen_a.pool, &an::current_pool());
  EXPECT_EQ(seen_b.pool, &an::current_pool());
  EXPECT_EQ(seen_a.threads, 1u);
  EXPECT_EQ(seen_b.threads, 1u);
  EXPECT_EQ(seen_a.mismatches, 0) << "thread A";
  EXPECT_EQ(seen_b.mismatches, 0) << "thread B";
}
