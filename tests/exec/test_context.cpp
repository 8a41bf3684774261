// ExecutionContext: ownership, RAII binding, and the per-context telemetry
// isolation contract (a context's counters are invisible to every other
// context and to the process default registry).
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "exec/context.hpp"
#include "numeric/parallel.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"

namespace an = aeropack::numeric;
namespace obs = aeropack::obs;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

/// An instrumentation site exactly like the solver hot paths use: a
/// thread-local handle that must re-resolve against whichever registry is
/// bound when it fires.
void instrumented_site() {
  static thread_local obs::CounterHandle bumps{"ctx.test.bumps"};
  bumps.add();
}

std::uint64_t bumps_in(const obs::Registry& reg) {
  const auto counters = reg.counters();
  const auto it = counters.find("ctx.test.bumps");
  return it == counters.end() ? 0u : it->second;
}

}  // namespace

TEST(ExecutionContext, FreshContextOwnsPoolAndRegistry) {
  ExecutionConfig cfg;
  cfg.threads = 2;
  cfg.telemetry = true;
  ExecutionContext ctx(cfg);
  EXPECT_EQ(ctx.threads(), 2u);
  EXPECT_TRUE(ctx.metrics().enabled());
  EXPECT_NE(&ctx.pool(), &an::current_pool());  // the unbound, worker-less pool
  EXPECT_NE(&ctx.metrics(), &obs::Registry::instance());
}

TEST(ExecutionContext, ZeroThreadsClampsToOne) {
  ExecutionConfig cfg;
  cfg.threads = 0;
  ExecutionContext ctx(cfg);
  EXPECT_EQ(ctx.threads(), 1u);
}

TEST(ExecutionContext, DefaultConfigIsSerialAndDormant) {
  ExecutionContext ctx;
  EXPECT_EQ(ctx.threads(), 1u);
  EXPECT_FALSE(ctx.metrics().enabled());
}

TEST(ExecutionContext, UseBindsPoolAndRegistryAndRestores) {
  an::ThreadPool& default_pool = an::current_pool();
  obs::Registry& default_reg = obs::current();
  EXPECT_EQ(an::thread_count(), 1u);  // nothing bound: kernels run serially
  ExecutionConfig cfg;
  cfg.threads = 3;
  ExecutionContext ctx(cfg);
  {
    const ExecutionContext::Use use(ctx);
    EXPECT_EQ(&an::current_pool(), &ctx.pool());
    EXPECT_EQ(&obs::current(), &ctx.metrics());
    EXPECT_EQ(an::thread_count(), 3u);  // thread_count follows the binding
  }
  EXPECT_EQ(&an::current_pool(), &default_pool);
  EXPECT_EQ(&obs::current(), &default_reg);
  EXPECT_EQ(an::thread_count(), 1u);
}

TEST(ExecutionContext, UseNestsAndRestoresInReverse) {
  ExecutionContext a, b;
  {
    const ExecutionContext::Use use_a(a);
    EXPECT_EQ(&obs::current(), &a.metrics());
    {
      const ExecutionContext::Use use_b(b);
      EXPECT_EQ(&obs::current(), &b.metrics());
      EXPECT_EQ(&an::current_pool(), &b.pool());
    }
    EXPECT_EQ(&obs::current(), &a.metrics());
    EXPECT_EQ(&an::current_pool(), &a.pool());
  }
}

TEST(ExecutionContext, KernelsRunOnTheBoundPool) {
  ExecutionConfig cfg;
  cfg.threads = 4;
  ExecutionContext ctx(cfg);
  const ExecutionContext::Use use(ctx);
  an::Vector a(1000, 0.5), b(1000, 2.0);
  EXPECT_DOUBLE_EQ(an::parallel_dot(a, b), 1000.0);
}

TEST(ExecutionContext, BorrowedPoolIsBoundWhileEachContextKeepsItsRegistry) {
  an::ThreadPool pool(2);
  ExecutionConfig cfg;
  cfg.threads = 2;
  cfg.telemetry = true;
  ExecutionContext first(pool, cfg);
  ExecutionContext second(pool, cfg);
  EXPECT_EQ(&first.pool(), &pool);
  EXPECT_EQ(&second.pool(), &pool);
  EXPECT_EQ(first.threads(), 2u);
  EXPECT_NE(&first.metrics(), &second.metrics());
  {
    const ExecutionContext::Use use(first);
    EXPECT_EQ(&an::current_pool(), &pool);
    EXPECT_EQ(&obs::current(), &first.metrics());
    instrumented_site();
    instrumented_site();
  }
  {
    const ExecutionContext::Use use(second);
    EXPECT_EQ(&an::current_pool(), &pool);
    EXPECT_EQ(&obs::current(), &second.metrics());
    instrumented_site();
  }
  EXPECT_EQ(bumps_in(first.metrics()), 2u);
  EXPECT_EQ(bumps_in(second.metrics()), 1u);
}

TEST(ExecutionContext, BorrowedPoolMustMatchTheConfiguredThreads) {
  an::ThreadPool pool(2);
  ExecutionConfig cfg;
  cfg.threads = 3;
  try {
    const ExecutionContext ctx(pool, cfg);
    FAIL() << "a 3-thread config borrowed a 2-thread pool";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos) << e.what();
  }
  cfg.threads = 0;  // clamps to 1, which still differs from 2
  EXPECT_THROW({ const ExecutionContext ctx(pool, cfg); }, std::invalid_argument);
  an::ThreadPool serial(1);
  const ExecutionContext ctx(serial, cfg);
  EXPECT_EQ(ctx.threads(), 1u);
}

// --- Satellite: per-context telemetry isolation ----------------------------

TEST(ContextTelemetry, CountersInContextAInvisibleInContextBAndDefault) {
  const std::uint64_t default_before = bumps_in(obs::Registry::instance());
  ExecutionConfig cfg;
  cfg.telemetry = true;
  ExecutionContext a(cfg), b(cfg);
  {
    const ExecutionContext::Use use(a);
    instrumented_site();
    instrumented_site();
    instrumented_site();
  }
  EXPECT_EQ(bumps_in(a.metrics()), 3u);
  EXPECT_EQ(bumps_in(b.metrics()), 0u);
  EXPECT_EQ(bumps_in(obs::Registry::instance()), default_before);
}

TEST(ContextTelemetry, HandleSiteFollowsTheBindingAcrossContexts) {
  // The same static thread_local handle must re-resolve when a different
  // registry is bound — this is the uid-revalidation contract that makes
  // per-site caches safe across context lifetimes.
  ExecutionConfig cfg;
  cfg.telemetry = true;
  ExecutionContext a(cfg);
  {
    ExecutionContext b(cfg);
    const ExecutionContext::Use use(b);
    instrumented_site();
    EXPECT_EQ(bumps_in(b.metrics()), 1u);
  }  // b destroyed; its registry is gone
  {
    const ExecutionContext::Use use(a);
    instrumented_site();  // must not touch b's freed registry
    instrumented_site();
  }
  EXPECT_EQ(bumps_in(a.metrics()), 2u);
}

TEST(ContextTelemetry, DormantContextRegistersKeysButRecordsNothing) {
  ExecutionContext ctx;  // telemetry off
  {
    const ExecutionContext::Use use(ctx);
    instrumented_site();
  }
  const auto counters = ctx.metrics().counters();
  const auto it = counters.find("ctx.test.bumps");
  ASSERT_NE(it, counters.end()) << "dormant sites still register their keys";
  EXPECT_EQ(it->second, 0u);
}

TEST(ContextTelemetry, EnableDisableOnContextDoesNotArmTheProcessRegistry) {
  const bool default_armed = obs::Registry::instance().enabled();
  ExecutionContext ctx;
  {
    const ExecutionContext::Use use(ctx);
    obs::enable();  // free function targets the *bound* registry
    EXPECT_TRUE(ctx.metrics().enabled());
    EXPECT_EQ(obs::Registry::instance().enabled(), default_armed);
    obs::disable();
    EXPECT_FALSE(ctx.metrics().enabled());
  }
  EXPECT_EQ(obs::Registry::instance().enabled(), default_armed);
}

TEST(ContextTelemetry, ReportCaptureOnContextEmitsSortedKeys) {
  ExecutionConfig cfg;
  cfg.telemetry = true;
  ExecutionContext ctx(cfg);
  // Register deliberately out of order.
  ctx.metrics().counter("zeta.last").add(7);
  ctx.metrics().counter("alpha.first").add(1);
  ctx.metrics().counter("mid.point").add(3);
  ctx.metrics().gauge("beta.gauge").set(2.0);

  const obs::Report report = obs::Report::capture(ctx.metrics(), "ctx_report", ctx.threads());
  const std::string json = report.to_json();
  // Flat JSON with keys in strict ascending order.
  const std::string keys[] = {"\"counters.alpha.first\"", "\"counters.mid.point\"",
                              "\"counters.zeta.last\"", "\"gauges.beta.gauge\""};
  std::size_t last = 0;
  for (const std::string& key : keys) {
    const std::size_t pos = json.find(key);
    ASSERT_NE(pos, std::string::npos) << key;
    EXPECT_GT(pos, last) << key << " out of order";
    last = pos;
  }
  // Capture is deterministic: same registry, same serialization.
  EXPECT_EQ(obs::Report::capture(ctx.metrics(), "ctx_report", ctx.threads()).to_json(), json);
}

TEST(ContextTelemetry, BoundCaptureSeesOnlyTheBoundRegistry) {
  ExecutionConfig cfg;
  cfg.telemetry = true;
  ExecutionContext ctx(cfg);
  {
    const ExecutionContext::Use use(ctx);
    instrumented_site();
    const obs::Report report = obs::Report::capture("bound", an::thread_count());
    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"counters.ctx.test.bumps\": 1"), std::string::npos) << json;
  }
}

TEST(ContextTelemetry, AddCountersMergesUnderPrefix) {
  ExecutionConfig cfg;
  cfg.telemetry = true;
  ExecutionContext ctx(cfg);
  ctx.metrics().counter("cg.iterations").add(42);
  obs::Report report = obs::Report::capture(ctx.metrics(), "merged", 1);
  report.add_counters("scenario_a", {{"cg.iterations", 17u}});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"counters.cg.iterations\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters.scenario_a.cg.iterations\": 17"), std::string::npos) << json;
}
