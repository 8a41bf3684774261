// Telemetry thread-safety under the numeric TSan gate: instrumented parallel
// kernels run with telemetry ENABLED while worker threads bump counters,
// record high-water marks and open nested spans. Any data race in the
// registry (instrument creation, the span tree, the enable gate) fails the
// sanitized run of `ctest -L numeric`.
#include <gtest/gtest.h>

#include <cstddef>

#include "numeric/grain.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "obs/registry.hpp"

namespace an = aeropack::numeric;
namespace obs = aeropack::obs;

namespace {

/// Binds a pool of `threads` alone: kernels fan out on it, while the process
/// registry these tests race on stays the calling thread's current one (an
/// ExecutionContext would bind its own registry as well).
class BoundPool {
 public:
  explicit BoundPool(std::size_t threads)
      : pool_(threads), prev_(an::exchange_current_pool(&pool_)) {}
  ~BoundPool() { an::exchange_current_pool(prev_); }
  BoundPool(const BoundPool&) = delete;
  BoundPool& operator=(const BoundPool&) = delete;

 private:
  an::ThreadPool pool_;
  an::ThreadPool* prev_;
};

struct TelemetryGuard {
  TelemetryGuard() {
    obs::enable();
    obs::Registry::instance().reset();
  }
  ~TelemetryGuard() { obs::disable(); }
};

/// Small SPD pentadiagonal system, enough rows for every worker to get work.
an::CsrMatrix banded_spd(std::size_t n) {
  an::SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 5.0);
    if (i + 1 < n) {
      b.add(i, i + 1, -1.0);
      b.add(i + 1, i, -1.0);
    }
    if (i + 2 < n) {
      b.add(i, i + 2, -0.5);
      b.add(i + 2, i, -0.5);
    }
  }
  return b.build();
}

}  // namespace

TEST(ObsThreading, InstrumentedParallelCgWithTelemetryEnabled) {
  TelemetryGuard telemetry;
  const BoundPool threads(8);
  // Force full fan-out: this suite exists to race worker threads against the
  // registry, so grain must not serialize the kernels on small machines.
  an::grain::ScopedForceFanOut force;

  const an::CsrMatrix a = banded_spd(20000);
  const an::Vector b(a.rows(), 1.0);
  const an::IterativeResult res = an::conjugate_gradient(a, b, {});
  ASSERT_TRUE(res.converged);

  const auto counters = obs::Registry::instance().counters();
  EXPECT_EQ(counters.at("numeric.cg.solves"), 1u);
  EXPECT_EQ(counters.at("numeric.cg.iterations"), res.iterations);
  // One SpMV per CG iteration (the zero-start path skips the x0 residual).
  EXPECT_EQ(counters.at("numeric.spmv.calls"), res.iterations);
  EXPECT_GE(counters.at("numeric.pool.queue_depth_highwater"), 1u);
  EXPECT_EQ(obs::Registry::instance().gauges().at("numeric.cg.last_iterations"),
            static_cast<double>(res.iterations));
}

TEST(ObsThreading, WorkerThreadsShareInstrumentsRacelessly) {
  TelemetryGuard telemetry;
  const BoundPool threads(8);
  an::grain::ScopedForceFanOut force;

  obs::Counter& events = obs::Registry::instance().counter("test.worker.events");
  obs::Highwater& widest = obs::Registry::instance().highwater("test.worker.widest");
  constexpr std::size_t kItems = 100000;
  an::parallel_for(0, kItems, [&](std::size_t lo, std::size_t hi) {
    // Spans, counter adds, high-water records and first-use instrument
    // creation all race here unless the registry synchronizes them.
    obs::ScopedTimer span("test.worker.chunk");
    obs::Registry::instance().counter("test.worker.created_in_flight").add();
    events.add(hi - lo);
    widest.record(hi - lo);
  });

  EXPECT_EQ(obs::Registry::instance().counters().at("test.worker.events"), kItems);
  EXPECT_GE(obs::Registry::instance().counters().at("test.worker.widest"), kItems / 8);
  bool saw_span = false;
  for (const auto& t : obs::Registry::instance().timers())
    if (t.path == "test.worker.chunk") {
      saw_span = true;
      EXPECT_GE(t.calls, 1u);
    }
  EXPECT_TRUE(saw_span);
}

TEST(ObsThreading, EnableDisableRacesWithWorkerMutations) {
  // The gate flips while workers mutate instruments: adds may or may not
  // land (the gate is advisory), but the process must stay race-free.
  TelemetryGuard telemetry;
  const BoundPool threads(4);
  an::grain::ScopedForceFanOut force;
  obs::Counter& c = obs::Registry::instance().counter("test.gate.race");
  for (int round = 0; round < 20; ++round) {
    if (round % 2 == 0)
      obs::enable();
    else
      obs::disable();
    an::parallel_for(0, 5000, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) c.add();
    });
  }
  obs::enable();
  EXPECT_LE(c.value(), 20u * 5000u);
}
