// Granularity-aware dispatch + fused CG kernels: the grain serial fallback
// must be invisible in results (bit-identical either side of the fan-out
// threshold), the fused single-pass kernels must reproduce the exact bits of
// the unfused kernel sequence at every thread count, and the spin-then-park
// pool must survive park/wake churn. Runs under the numeric TSan gate.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/context.hpp"
#include "numeric/grain.hpp"
#include "numeric/parallel.hpp"
#include "numeric/stats.hpp"

namespace an = aeropack::numeric;
namespace grain = an::grain;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

an::Vector random_vector(std::size_t n, unsigned seed) {
  an::Rng rng(seed);
  an::Vector v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

const std::size_t kThreadSweep[] = {1, 2, 8};

}  // namespace

TEST(Grain, PlanThreadsSerializesSmallWork) {
  EXPECT_EQ(grain::plan_threads(grain::Work::elements(8, grain::Cost::kStream), 8), 1u);
  EXPECT_EQ(grain::plan_threads(
                grain::Work{grain::kMinWorkToFanOut - 1.0}, 8),
            1u);
  // A single-thread pool never fans out regardless of work.
  EXPECT_EQ(grain::plan_threads(grain::Work{1e12}, 1), 1u);
}

TEST(Grain, PlanThreadsCapsAtPoolAndHardware) {
  const std::size_t hw = grain::hardware_parallelism();
  ASSERT_GE(hw, 1u);
  const auto planned = grain::plan_threads(grain::Work{1e12}, 64);
  EXPECT_LE(planned, hw);
  EXPECT_LE(planned, 64u);
  // Each extra thread needs kMinWorkPerThread: just past the fan-out
  // threshold only 1 + units/kMinWorkPerThread threads are justified.
  const auto narrow = grain::plan_threads(grain::Work{grain::kMinWorkToFanOut}, 64);
  EXPECT_LE(narrow,
            1 + static_cast<std::size_t>(grain::kMinWorkToFanOut / grain::kMinWorkPerThread));
}

TEST(Grain, ScopedForceFanOutOverridesTheGate) {
  EXPECT_FALSE(grain::fan_out_forced());
  {
    grain::ScopedForceFanOut outer;
    EXPECT_TRUE(grain::fan_out_forced());
    EXPECT_EQ(grain::plan_threads(grain::Work{1.0}, 8), 8u);
    {
      grain::ScopedForceFanOut inner;  // nests
      EXPECT_TRUE(grain::fan_out_forced());
    }
    EXPECT_TRUE(grain::fan_out_forced());
  }
  EXPECT_FALSE(grain::fan_out_forced());
}

TEST(Grain, SerialThresholdBoundaryIsBitInvisible) {
  // Sizes straddling the fan-out boundary for each cost class: the dispatch
  // decision flips between n-1 and n+1, the bits must not.
  for (const grain::Cost c : {grain::Cost::kDot, grain::Cost::kStream}) {
    const std::size_t boundary = grain::fan_out_elements(c);
    for (const std::size_t n : {boundary - 1, boundary, boundary + 1}) {
      const an::Vector x = random_vector(n, 11u + static_cast<unsigned>(n));
      const an::Vector y = random_vector(n, 23u + static_cast<unsigned>(n));
      const double serial_dot = an::parallel_dot(x, y);
      const double serial_norm = an::parallel_norm2(x);
      an::Vector serial_axpy = y;
      an::parallel_axpy(0.37, x, serial_axpy);
      for (const std::size_t t : kThreadSweep) {
        ExecutionContext ctx(ExecutionConfig{t, false});
        const ExecutionContext::Use bind(ctx);
        EXPECT_EQ(an::parallel_dot(x, y), serial_dot) << "n=" << n << " t=" << t;
        EXPECT_EQ(an::parallel_norm2(x), serial_norm) << "n=" << n << " t=" << t;
        an::Vector z = y;
        an::parallel_axpy(0.37, x, z);
        EXPECT_EQ(z, serial_axpy) << "n=" << n << " t=" << t;
      }
    }
  }
}

TEST(Grain, ForcedFanOutMatchesSerialBits) {
  // The same reduction with the gate forced open (real pool chunks) and
  // naturally closed (serial fallback) — the fixed-chunk summation order
  // makes them identical, which is the whole determinism contract.
  ExecutionContext ctx(ExecutionConfig{8, false});
  const ExecutionContext::Use bind(ctx);
  const std::size_t n = 4096;  // well below the fan-out threshold
  const an::Vector x = random_vector(n, 5);
  const an::Vector y = random_vector(n, 7);
  const double gated = an::parallel_dot(x, y);
  double forced = 0.0;
  {
    grain::ScopedForceFanOut force;
    forced = an::parallel_dot(x, y);
  }
  EXPECT_EQ(gated, forced);
}

TEST(FusedCg, UpdateMatchesUnfusedSequenceBitwise) {
  // cg_fused_update must reproduce, bit for bit, the four-kernel sequence it
  // replaced: x += alpha p; r += (-alpha) ap; z = inv_d ∘ r; rr = <r,r>;
  // rz = <r,z> — at every thread count, forced through the real pool.
  const std::size_t n = 50000;
  const double alpha = 0.8235;
  const an::Vector p = random_vector(n, 1);
  const an::Vector ap = random_vector(n, 2);
  an::Vector inv_d = random_vector(n, 3);
  for (double& d : inv_d) d = 1.0 + d * d;  // positive diagonal

  // Unfused reference, serial (nothing bound).
  an::Vector x_ref = random_vector(n, 4);
  an::Vector r_ref = random_vector(n, 5);
  an::parallel_axpy(alpha, p, x_ref);
  an::parallel_axpy(-alpha, ap, r_ref);
  an::Vector z_ref(n);
  for (std::size_t i = 0; i < n; ++i) z_ref[i] = inv_d[i] * r_ref[i];
  const double rr_ref = an::parallel_dot(r_ref, r_ref);
  const double rz_ref = an::parallel_dot(r_ref, z_ref);

  grain::ScopedForceFanOut force;
  for (const std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    an::Vector x = random_vector(n, 4);
    an::Vector r = random_vector(n, 5);
    an::Vector z(n);
    const an::CgFused f = an::cg_fused_update(alpha, p, ap, inv_d, x, r, z);
    EXPECT_EQ(x, x_ref) << "t=" << t;
    EXPECT_EQ(r, r_ref) << "t=" << t;
    EXPECT_EQ(z, z_ref) << "t=" << t;
    EXPECT_EQ(f.rr, rr_ref) << "t=" << t;
    EXPECT_EQ(f.rz, rz_ref) << "t=" << t;
  }
}

TEST(FusedCg, HadamardDotMatchesUnfusedBitwise) {
  const std::size_t n = 50000;
  an::Vector d = random_vector(n, 8);
  for (double& v : d) v = 1.0 + v * v;
  const an::Vector r = random_vector(n, 9);

  an::Vector z_ref(n);
  for (std::size_t i = 0; i < n; ++i) z_ref[i] = d[i] * r[i];
  const double rz_ref = an::parallel_dot(r, z_ref);

  grain::ScopedForceFanOut force;
  for (const std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    an::Vector z(n);
    const double rz = an::fused_hadamard_dot(d, r, z);
    EXPECT_EQ(z, z_ref) << "t=" << t;
    EXPECT_EQ(rz, rz_ref) << "t=" << t;
  }
}

TEST(SpinPark, WorkersParkBetweenJobsAndWakeCorrectly) {
  // Long idle gaps force every worker past the spin window into the parked
  // state; each subsequent job must still be claimed exactly once. This is
  // the lost-wakeup regression test for the spin-then-park protocol.
  an::ThreadPool pool(4);
  std::atomic<std::size_t> visited{0};
  const std::function<void(std::size_t)> count = [&](std::size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
  };
  for (int round = 0; round < 6; ++round) {
    pool.run(16, count);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // all park
    pool.run(16, count);
  }
  EXPECT_EQ(visited.load(), 6u * 2u * 16u);
}

TEST(SpinPark, RapidFireJobsDoNotLoseTasks) {
  // Back-to-back publishes keep workers inside the spin window: the job
  // sequence bump alone must hand them the next claim window.
  an::ThreadPool pool(4);
  std::atomic<std::size_t> visited{0};
  const std::function<void(std::size_t)> count = [&](std::size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
  };
  constexpr std::size_t kJobs = 2000;
  for (std::size_t j = 0; j < kJobs; ++j) pool.run(4, count);
  EXPECT_EQ(visited.load(), kJobs * 4u);
}

TEST(SpinPark, ExceptionsPropagateAfterParking) {
  an::ThreadPool pool(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // park first
  const std::function<void(std::size_t)> boom = [](std::size_t task) {
    if (task == 1) throw std::runtime_error("parked boom");
  };
  EXPECT_THROW(pool.run(2, boom), std::runtime_error);
  // The pool must still be usable after a failed job.
  std::atomic<std::size_t> visited{0};
  const std::function<void(std::size_t)> count = [&](std::size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
  };
  pool.run(8, count);
  EXPECT_EQ(visited.load(), 8u);
}
