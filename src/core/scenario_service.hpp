// core::ScenarioService — persistent, re-entrant scenario executor over
// shareable immutable artifacts (DESIGN.md "Scenario service").
//
// It is the one way to submit scenarios, and it is schema-first:
//  - Scenarios arrive as serializable core::ScenarioSpec values — a named
//    solver graph plus flat parameter/load/boundary maps — not opaque
//    std::function closures. Because a spec is data, the service
//    content-hashes it and *deduplicates*: two submissions with equal
//    content hashes resolve to one solve, the second submitter waits on
//    the first's job (svc.cache.dedup_hits). The memo persists for the
//    service lifetime, so re-submitting a spec after its batch completed
//    returns the memoized result without re-solving. A caller with a
//    one-off solve registers it as a graph (register_graph) and submits a
//    spec naming it.
//  - A keyed core::ArtifactCache sits under all workers. Each scenario's
//    ExecutionContext carries a pointer to it; registered solver
//    graphs probe it for structurally-shared immutable artifacts (FV
//    assemblies, modal factorizations, ROM models) keyed by structural
//    hashes. Cache-hit solves are bitwise identical to cold solves at any
//    worker count — the determinism contract the svc ctest tier gates,
//    plain and under TSan.
//
// Execution model: `workers` persistent threads drain a FIFO queue, and
// each worker owns one persistent numeric::ThreadPool of
// threads_per_scenario threads. Every scenario gets a fresh ExecutionContext
// (own registry, own cache pointer, the worker's pool borrowed) created,
// bound, driven and destroyed on that worker thread, so per-scenario
// telemetry comes back isolated while no scenario spawns a thread. With
// deduplicate and use_cache both off, every submission is one cold solve
// with its own counters — the plain batch executor. Results are delivered
// through tickets; wait() blocks until that scenario's job completes (which
// may have been computed for an earlier duplicate submission), and run()
// returns them in submission order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/scenario_spec.hpp"
#include "exec/context.hpp"

namespace aeropack::core {

/// One registered solver graph: interprets a spec's params/loads/boundaries
/// (through core::value_or / core::count_or) and returns named scalar
/// outputs. Runs with the scenario's context bound to the calling thread;
/// probes ctx.artifact_cache() (may be null) for shared artifacts. Throwing
/// marks the scenario failed without aborting the batch.
using GraphFn =
    std::function<std::map<std::string, double>(const ScenarioSpec&, ExecutionContext&)>;

struct ScenarioResult {
  std::string name;
  bool ok = false;
  std::string error;  ///< exception message when !ok
  std::map<std::string, double> values;  ///< scenario outputs
  /// The scenario's isolated cost profile: counters + high-water marks from
  /// its private registry (empty when telemetry is off).
  std::map<std::string, std::uint64_t> counters;
  /// Last-set gauge values from the same registry (convergence traces,
  /// problem sizes), captured alongside the counters.
  std::map<std::string, double> gauges;
  double seconds = 0.0;  ///< wall time of this scenario's run
};

struct ScenarioServiceOptions {
  /// Persistent worker threads (0 throws std::invalid_argument).
  std::size_t workers = 1;
  /// Threads each scenario's kernels run on (0 is clamped to 1). Every
  /// worker owns one pool of this size for its lifetime, and each scenario's
  /// context borrows its worker's pool.
  std::size_t threads_per_scenario = 1;
  /// Arm each scenario's registry so results carry counters + gauges.
  bool telemetry = true;
  /// Resolve content-hash-equal specs to a single solve.
  bool deduplicate = true;
  /// Hand every scenario context a pointer to the shared ArtifactCache.
  /// Off = every solve builds from scratch, so per-scenario counters are
  /// exactly those of an isolated cold solve.
  bool use_cache = true;
  ArtifactCacheOptions cache;
};

/// Lifetime totals of the service itself (cache totals live in
/// ArtifactCache::stats()).
struct ScenarioServiceStats {
  std::uint64_t submitted = 0;   ///< submit() calls
  std::uint64_t executed = 0;    ///< scenarios actually solved
  std::uint64_t dedup_hits = 0;  ///< submissions resolved to an existing job
};

class ScenarioService {
  struct Job;

 public:
  explicit ScenarioService(const ScenarioServiceOptions& opts = {});
  /// Drains the queue (every submitted scenario still executes), then joins
  /// the workers. Waiting on a ticket after the service is destroyed is
  /// undefined — wait first.
  ~ScenarioService();
  ScenarioService(const ScenarioService&) = delete;
  ScenarioService& operator=(const ScenarioService&) = delete;

  /// Handle to one submission. Duplicate submissions share a job but keep
  /// their own ticket (and their own result name).
  class Ticket {
   public:
    Ticket() = default;
    explicit operator bool() const { return static_cast<bool>(job_); }

   private:
    friend class ScenarioService;
    std::shared_ptr<Job> job_;
    std::string name_;
  };

  /// Register (or replace) a solver graph. The built-in graphs
  /// "fv_slab_steady", "modal_plate" and "seb_point" are registered by the
  /// constructor; rom::register_rom_graphs adds the ROM-backed ones.
  void register_graph(std::string name, GraphFn fn);
  bool has_graph(const std::string& name) const;

  /// Submit a spec. With deduplication on, a spec whose content hash
  /// matches an earlier submission returns a ticket onto the existing job
  /// (no new solve). An unknown spec.graph fails at execution with a
  /// descriptive ScenarioResult::error, not here.
  Ticket submit(ScenarioSpec spec);

  /// Block until the ticket's job completes; returns a copy of its result
  /// with the ticket's own name. Throws std::invalid_argument on a
  /// default-constructed ticket.
  ScenarioResult wait(const Ticket& ticket);

  /// submit() + wait() over a batch, results in input order.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs);

  ScenarioServiceStats stats() const;
  ArtifactCache& cache() { return cache_; }
  const ArtifactCache& cache() const { return cache_; }
  const ScenarioServiceOptions& options() const { return opts_; }

 private:
  void worker_loop();
  void execute(Job& job, numeric::ThreadPool& pool);
  void register_builtin_graphs();

  ScenarioServiceOptions opts_;
  ArtifactCache cache_;

  mutable std::mutex graphs_mutex_;
  std::map<std::string, GraphFn> graphs_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool stopping_ = false;
  // Dedup memo: content hash -> job, for the service lifetime.
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> memo_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> dedup_hits_{0};

  std::vector<std::thread> workers_;
};

}  // namespace aeropack::core
