// aeropack::ExecutionContext — one isolated execution environment for the
// solver stack: a thread pool, owned or borrowed, and an obs telemetry
// registry, so independent solves can run concurrently without sharing
// mutable process state.
//
// Ownership model (see DESIGN.md "Execution contexts"):
//  - The numeric kernels and the obs instrumentation sites resolve
//    thread-local "current" handles (numeric::current_pool(),
//    obs::current()). The bound context is the one thing that decides how
//    many threads a kernel runs on: with nothing bound, kernels run serially
//    on a shared worker-less pool that any number of threads may drive at
//    once, and instruments record into the process-wide registry. Results
//    are bitwise the same either way.
//  - ExecutionContext::Use binds a context's pool and registry to the
//    calling thread (RAII, restores the previous binding), so a whole solve
//    — FvModel, ThermalNetwork, the sparse modal path — lands on that
//    context without threading a handle through every call. Solvers take no
//    context argument: callers pin a solve by binding with Use.
//  - A context either owns its pool (direct callers) or borrows one that
//    outlives it: each core::ScenarioService worker keeps one pool for its
//    lifetime and runs every scenario on a fresh context that borrows it,
//    so a scenario spawns no threads, yet its registry and artifact-cache
//    pointer are its own.
//  - One context serves one driving thread at a time; distinct contexts on
//    distinct threads are fully independent (no shared instruments, no
//    shared task queue). This is the contract core::ScenarioService builds
//    on.
#pragma once

#include <cstddef>
#include <optional>

#include "numeric/parallel.hpp"
#include "obs/registry.hpp"

namespace aeropack::core {
class ArtifactCache;  // core/artifact_cache.hpp — exec never links against core
}

namespace aeropack {

/// Run configuration for a fresh context.
struct ExecutionConfig {
  /// Total threads the context's pool runs kernels on (0 is clamped to 1).
  /// With core::ScenarioServiceOptions::threads_per_scenario, the only
  /// thread count in the library: batch executors size contexts explicitly
  /// against their worker count.
  std::size_t threads = 1;
  /// Arm the context's registry from birth (per-context telemetry does not
  /// read AEROPACK_TELEMETRY — that variable governs the process default).
  bool telemetry = false;
  /// Optional shared artifact cache (non-owning; must outlive the context).
  /// Solver graphs that run under core::ScenarioService probe it for
  /// reusable immutable artifacts — FV assemblies, modal factorizations,
  /// ROM models. Null (default) means every solve builds from scratch,
  /// which is the behavior all existing goldens were recorded under.
  core::ArtifactCache* artifact_cache = nullptr;
};

class ExecutionContext {
 public:
  /// Fresh isolated context: its own pool and its own registry.
  explicit ExecutionContext(const ExecutionConfig& config = {});
  /// Context on a borrowed pool, with its own registry and cache pointer.
  /// The pool must outlive the context, and only the thread driving the
  /// context may drive the pool meanwhile. Throws std::invalid_argument,
  /// naming `threads`, when config.threads (0 clamped to 1) differs from
  /// pool.threads().
  ExecutionContext(numeric::ThreadPool& pool, const ExecutionConfig& config);
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  numeric::ThreadPool& pool() { return *pool_; }
  obs::Registry& metrics() { return registry_; }
  const obs::Registry& metrics() const { return registry_; }
  std::size_t threads() const { return pool_->threads(); }
  /// The shared artifact cache this context may consult, or nullptr when the
  /// run is uncached (direct solves, services built with use_cache off).
  core::ArtifactCache* artifact_cache() const { return artifact_cache_; }

  /// RAII binding: while alive, the constructing thread's parallel kernels
  /// run on this context's pool and its instrumentation records into this
  /// context's registry. Nests (restores the previous binding); must be
  /// destroyed on the thread that created it, and the context must outlive
  /// every Use of it.
  class Use {
   public:
    explicit Use(ExecutionContext& ctx)
        : prev_pool_(numeric::exchange_current_pool(ctx.pool_)),
          prev_registry_(obs::exchange_current(&ctx.registry_)) {}
    ~Use() {
      obs::exchange_current(prev_registry_);
      numeric::exchange_current_pool(prev_pool_);
    }
    Use(const Use&) = delete;
    Use& operator=(const Use&) = delete;

   private:
    numeric::ThreadPool* prev_pool_;
    obs::Registry* prev_registry_;
  };

 private:
  std::optional<numeric::ThreadPool> owned_pool_;  ///< empty when borrowed
  numeric::ThreadPool* pool_;
  obs::Registry registry_;
  core::ArtifactCache* artifact_cache_;
};

}  // namespace aeropack
