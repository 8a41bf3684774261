// Each ScenarioService worker runs every scenario on one persistent pool:
// the same pool threads serve scenario after scenario, and a scenario whose
// pool task throws fails alone, leaving the pool fit for the next one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_service.hpp"

namespace ac = aeropack::core;

namespace {

/// Scenarios this thread has taken part in, across every pool run.
thread_local std::size_t t_scenarios_served = 0;

/// Run one task per pool thread. Each task waits until all of them have
/// started, so no thread can take two: every thread of the pool runs
/// exactly one task. A thread that never joins fails the scenario instead
/// of hanging it.
void run_on_every_pool_thread(aeropack::ExecutionContext& ctx,
                              const std::function<void(std::size_t)>& task) {
  const std::size_t n = ctx.threads();
  std::atomic<std::size_t> started{0};
  ctx.pool().run(n, [&](std::size_t t) {
    started.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < n) {
      if (std::chrono::steady_clock::now() > deadline)
        throw std::runtime_error("a pool thread never took its task");
      std::this_thread::yield();
    }
    task(t);
  });
}

/// Outputs the fewest and the most earlier scenarios any participating
/// thread has served, then counts this one on every thread.
std::map<std::string, double> rendezvous(const ac::ScenarioSpec&, aeropack::ExecutionContext& ctx) {
  std::vector<std::size_t> served(ctx.threads());
  run_on_every_pool_thread(ctx, [&](std::size_t t) { served[t] = t_scenarios_served++; });
  return {{"served_min", static_cast<double>(*std::min_element(served.begin(), served.end()))},
          {"served_max", static_cast<double>(*std::max_element(served.begin(), served.end()))}};
}

ac::ScenarioServiceOptions one_worker(std::size_t threads) {
  ac::ScenarioServiceOptions opts;
  opts.workers = 1;
  opts.threads_per_scenario = threads;
  opts.deduplicate = false;
  opts.use_cache = false;
  return opts;
}

ac::ScenarioSpec spec_of(const std::string& name, const std::string& graph) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = graph;
  return spec;
}

}  // namespace

TEST(WorkerPool, EveryPoolThreadServesEveryScenarioOfItsWorker) {
  for (const std::size_t threads : {2u, 4u}) {
    ac::ScenarioService service(one_worker(threads));
    service.register_graph("rendezvous", rendezvous);
    std::vector<ac::ScenarioSpec> specs;
    for (int i = 0; i < 20; ++i) specs.push_back(spec_of("s" + std::to_string(i), "rendezvous"));
    const std::vector<ac::ScenarioResult> results = service.run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok) << results[i].error;
      // One worker drains the queue in order, so scenario i follows i
      // earlier ones, and every thread of its pool took part in all of them.
      EXPECT_EQ(results[i].values.at("served_min"), static_cast<double>(i))
          << threads << " threads, scenario " << i;
      EXPECT_EQ(results[i].values.at("served_max"), static_cast<double>(i))
          << threads << " threads, scenario " << i;
    }
  }
}

TEST(WorkerPool, ThrowingPoolTaskFailsOnlyItsScenario) {
  ac::ScenarioService service(one_worker(2));
  service.register_graph("task_throws", [](const ac::ScenarioSpec&,
                                           aeropack::ExecutionContext& ctx)
                                            -> std::map<std::string, double> {
    const std::thread::id caller = std::this_thread::get_id();
    run_on_every_pool_thread(ctx, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) throw std::runtime_error("pool task failed");
    });
    return {};
  });
  service.register_graph("rendezvous", rendezvous);
  ac::ScenarioSpec slab = spec_of("slab", "fv_slab_steady");
  slab.params = {{"nx", 32.0}, {"ny", 16.0}, {"nz", 8.0}};
  const std::vector<ac::ScenarioResult> results =
      service.run({spec_of("throws", "task_throws"), slab, spec_of("after", "rendezvous")});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error, "pool task failed");
  ASSERT_TRUE(results[1].ok) << results[1].error;
  ASSERT_TRUE(results[2].ok) << results[2].error;

  ac::ScenarioService fresh(one_worker(2));
  const std::vector<ac::ScenarioResult> reference = fresh.run({slab});
  ASSERT_TRUE(reference[0].ok) << reference[0].error;
  EXPECT_EQ(results[1].values, reference[0].values);
}
