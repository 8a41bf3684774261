// Structured solver telemetry: named monotonic counters, last-write gauges,
// high-water marks and an RAII span timer tree, grouped into registries.
//
// Design constraints (see DESIGN.md "Observability" and "Execution
// contexts"):
//  - Zero dependencies: obs sits below numeric in the subsystem order so
//    every layer (kernels, solvers, benches) can report through it.
//  - Per-context registries: every aeropack::ExecutionContext owns a
//    Registry; instrumentation sites resolve the *current* registry of the
//    calling thread (bound by ExecutionContext::Use, defaulting to the
//    process-wide Registry::instance()), so concurrent solves on isolated
//    contexts record into disjoint instrument sets.
//  - Dormant by default: instrumentation is compiled in but every mutation
//    is gated on one relaxed atomic-bool load (the owning registry's armed
//    flag), so hot loops pay a single predictable branch when telemetry is
//    off (the 64^3 CG overhead test in tests/obs/test_overhead.cpp pins
//    this to run-to-run noise).
//  - The default registry is enabled via the AEROPACK_TELEMETRY environment
//    variable (any value but "" or "0") or programmatically with enable();
//    per-context registries are armed through their ExecutionConfig.
//  - Counters are std::atomic and safe to bump from worker threads; spans
//    (ScopedTimer) keep a thread-local cursor into a mutex-guarded tree, so
//    nesting is tracked per thread and the structure stays consistent.
//  - Instrument *addresses* handed out by a Registry are stable for that
//    registry's lifetime; Registry::reset() zeroes values but never
//    invalidates them. Instrumentation sites must NOT cache bare
//    `static obs::Counter&` refs (that would pin one registry for the whole
//    process) — they declare `static thread_local` CounterHandle /
//    GaugeHandle / HighwaterHandle objects, which re-resolve whenever the
//    thread's current registry changes.
//
// The algorithmic counters (Picard passes, CG iterations, factorizations,
// subspace sweeps) are bit-deterministic across thread counts — the PR 1-3
// determinism invariants — so exact values can be frozen as golden contracts
// (tests/obs/) and gated in CI. Scheduling counters (parallel chunks, pool
// queue high-water) are thread-dependent and excluded from those contracts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace aeropack::obs {

class Registry;

namespace detail {
/// Registry bound to this thread by ExecutionContext::Use; null means the
/// process-wide default. Not touched directly — see current() / bind below.
/// constinit (here and at the definition) tells every includer that the
/// variable needs no dynamic initialization, so reads go straight to the
/// thread-local slot instead of through a TLS wrapper call — the wrapper's
/// return value is what -fsanitize=null reported as a null Registry*.
extern thread_local constinit Registry* t_current;
}  // namespace detail

/// Monotonic event counter. add() is safe from any thread. Mutations are
/// gated on the owning registry's armed flag (one relaxed load).
class Counter {
 public:
  explicit Counter(const std::atomic<bool>* armed) : armed_(armed) {}
  void add(std::uint64_t n = 1) {
    if (armed_->load(std::memory_order_relaxed))
      value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  const std::atomic<bool>* armed_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write scalar (final residuals, problem sizes). Safe from any thread;
/// concurrent writers race benignly (last write wins).
class Gauge {
 public:
  explicit Gauge(const std::atomic<bool>* armed) : armed_(armed) {}
  void set(double v) {
    if (armed_->load(std::memory_order_relaxed))
      value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  const std::atomic<bool>* armed_;
  std::atomic<double> value_{0.0};
};

/// Monotonic maximum of recorded values (queue depths, envelope sizes).
class Highwater {
 public:
  explicit Highwater(const std::atomic<bool>* armed) : armed_(armed) {}
  void record(std::uint64_t v) {
    if (!armed_->load(std::memory_order_relaxed)) return;
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  const std::atomic<bool>* armed_;
  std::atomic<std::uint64_t> value_{0};
};

/// One flattened node of the span-timer tree (preorder).
struct TimerEntry {
  std::string path;  ///< "/"-joined span names from the root, e.g. "fv.solve_steady/fv.assemble"
  std::uint64_t calls = 0;
  double seconds = 0.0;
  std::size_t depth = 0;  ///< nesting depth (top-level spans are 0)
};

/// Telemetry registry. Lookup creates on first use and returns a reference
/// that stays valid for the registry's lifetime. The process-wide default
/// lives behind instance(); per-context registries are owned by
/// aeropack::ExecutionContext and die with it — instrumentation sites
/// therefore go through the uid-revalidating handles below, never bare
/// cached references.
class Registry {
 public:
  /// Fresh registry (one per ExecutionContext). `enabled` arms every
  /// instrument it hands out from birth.
  explicit Registry(bool enabled = false);
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide default registry (leaked: instrumentation sites may fire
  /// during static teardown). Armed at first use when AEROPACK_TELEMETRY is
  /// set, non-empty and not "0".
  static Registry& instance();

  /// True when this registry's instruments record mutations.
  bool enabled() const { return armed_.load(std::memory_order_relaxed); }
  void enable() { armed_.store(true, std::memory_order_relaxed); }
  void disable() { armed_.store(false, std::memory_order_relaxed); }

  /// Monotonic id distinguishing registry instances for the process
  /// lifetime (never reused, so a handle cache cannot alias a new registry
  /// allocated at a freed one's address). Starts at 1; handles use 0 as
  /// their unresolved sentinel.
  std::uint64_t uid() const { return uid_; }

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Highwater& highwater(const std::string& name);

  /// Zero every counter/gauge/highwater and all span statistics. Instrument
  /// addresses and the span-tree structure stay valid. Must not be called
  /// while a ScopedTimer span is open.
  void reset();

  /// Snapshots for reports and tests. counters() merges plain counters and
  /// high-water marks into one monotonic map (sorted keys — deterministic).
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, double> gauges() const;
  /// Preorder flatten of the span tree; spans with zero calls are omitted.
  std::vector<TimerEntry> timers() const;

 private:
  friend class ScopedTimer;
  struct Impl;
  std::atomic<bool> armed_{false};
  std::uint64_t uid_;
  Impl* impl_;
};

/// Registry the instrumentation sites of this thread report to: the one
/// bound by ExecutionContext::Use, or the process default.
inline Registry& current() {
  return detail::t_current != nullptr ? *detail::t_current : Registry::instance();
}

/// Bind `r` as this thread's current registry (nullptr restores the process
/// default); returns the previous binding. Prefer ExecutionContext::Use,
/// which pairs this with the matching thread-pool binding. Must not be
/// called while a ScopedTimer span is open on this thread.
Registry* exchange_current(Registry* r);

/// True when the current registry records mutations. One thread-local read
/// plus one relaxed load — this is the dormant fast path every
/// instrumentation site branches on.
inline bool enabled() { return current().enabled(); }

/// Turn telemetry on/off for the current registry (the process default when
/// no context is bound; also settable via AEROPACK_TELEMETRY).
void enable();
void disable();

namespace detail {

/// Per-site, per-thread instrument cache shared by the three handle types:
/// re-resolves by name whenever the thread's current registry changes
/// (compared by uid, which is never reused).
template <typename Instrument, Instrument& (Registry::*Lookup)(const std::string&)>
class Handle {
 public:
  explicit Handle(const char* name) : name_(name) {}
  /// Instrument for the current registry, creating it on first use.
  Instrument& get() {
    Registry& reg = current();
    if (uid_ != reg.uid()) {
      instrument_ = &(reg.*Lookup)(name_);
      uid_ = reg.uid();
    }
    return *instrument_;
  }

 private:
  const char* name_;
  std::uint64_t uid_ = 0;  // 0 = unresolved (uids start at 1)
  Instrument* instrument_ = nullptr;
};

}  // namespace detail

/// Instrumentation-site handles. Declare as `static thread_local` at the
/// site so the name→instrument resolution is cached per thread yet follows
/// the thread's current registry:
///   static thread_local obs::CounterHandle solves{"fv.steady_solves"};
///   solves.add();
class CounterHandle : public detail::Handle<Counter, &Registry::counter> {
 public:
  using Handle::Handle;
  void add(std::uint64_t n = 1) { get().add(n); }
};

class GaugeHandle : public detail::Handle<Gauge, &Registry::gauge> {
 public:
  using Handle::Handle;
  void set(double v) { get().set(v); }
};

class HighwaterHandle : public detail::Handle<Highwater, &Registry::highwater> {
 public:
  using Handle::Handle;
  void record(std::uint64_t v) { get().record(v); }
};

/// RAII nested span: accumulates wall time and call count under the
/// innermost open span of the current thread, in the thread's current
/// registry. Dormant-telemetry spans cost one branch and touch no shared
/// state. Spans must be strictly nested per thread (automatic with scoped
/// lifetime), and the current registry must not change while a span is open.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  void* node_ = nullptr;    // TimerNode*, null when dormant at construction
  void* parent_ = nullptr;  // previous thread-local cursor
  std::int64_t t0_ns_ = 0;
};

/// "prefix.NN.suffix"-style key for per-iteration gauges; pads the index to
/// two digits so report keys sort in pass order.
std::string indexed_key(const char* prefix, std::size_t index, const char* suffix);

}  // namespace aeropack::obs
