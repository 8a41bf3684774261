// Shared-memory parallel execution layer: a small static-partition thread
// pool plus deterministic data-parallel kernels for the iterative solvers.
//
// Design constraints (see DESIGN.md "Threading model" and "Execution
// contexts"):
//  - The calling thread's bound aeropack::ExecutionContext is the one thing
//    that decides where kernels run: every kernel resolves current_pool(),
//    the pool that ExecutionContext::Use bound. A thread with nothing bound
//    runs kernels serially on one shared worker-less pool, which any number
//    of threads may drive at once. Concurrent solves on distinct pools from
//    distinct threads are safe; a pool with workers must still only be
//    driven by one thread at a time.
//  - Dispatch is granularity-aware (numeric/grain.hpp): every kernel
//    estimates its work (elements × cost class) and runs as a plain serial
//    loop below the calibrated fan-out threshold — small solves never touch
//    the pool, so threads cannot make them slower.
//  - Workers use a bounded spin-then-park wakeup protocol (per-worker state
//    word, exponential backoff to a condition variable), so a warm dispatch
//    costs ~100 ns instead of a futex wake chain.
//  - On a 1-thread pool every entry point degrades to a plain serial loop —
//    no synchronization, exceptions propagate directly.
//  - Reductions (dot / norm2, and the fused CG kernels) accumulate
//    fixed-size chunks and sum the per-chunk partials in chunk order, so the
//    floating-point result is bit-identical for ANY thread count (including
//    the serial fallback).
//  - Exceptions thrown inside worker tasks are captured and rethrown on the
//    calling thread (first one wins).
#pragma once

#include <cstddef>
#include <functional>

#include "numeric/dense.hpp"
#include "numeric/grain.hpp"

namespace aeropack::numeric {

class ThreadPool;

namespace detail {
/// Pool bound to this thread by ExecutionContext::Use; null means nothing is
/// bound. Not touched directly — see current_pool() below. constinit, as
/// obs::detail::t_current: reads go straight to the thread-local slot, not
/// through the TLS wrapper whose result GCC 12's -fsanitize=null reported as
/// a null ThreadPool*.
extern thread_local constinit ThreadPool* t_pool;
/// The one worker-less pool every unbound thread runs kernels on.
ThreadPool& serial_pool();
}  // namespace detail

/// Static-partition pool: `threads - 1` persistent workers, the calling
/// thread participates as the last worker. No work stealing — tasks are
/// claimed from a shared atomic counter, which for the `parallel_for` use of
/// one chunk per thread amounts to a static partition. A pool with workers
/// takes one driving thread at a time; distinct pools may be driven
/// concurrently. A worker-less pool (1 thread) runs every job inline and
/// shares no state between calls, so any number of threads may drive it at
/// once.
///
/// Wakeup: workers spin briefly on an atomic job sequence (cpu-relax, then
/// yielding backoff), then park on a condition variable behind a per-worker
/// state word. run() only touches the mutex/cv when a worker is actually
/// parked, so back-to-back dispatches on a warm pool are lock-free.
class ThreadPool {
 public:
  /// Standalone pool with `threads` total participants (0 is clamped to 1,
  /// i.e. no workers — every run() is inline). Owned by an ExecutionContext
  /// or, for its lifetime, by a core::ScenarioService worker whose
  /// per-scenario contexts borrow it.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const { return workers_ + 1; }

  /// Run fn(task_index) for every task_index in [0, n_tasks). Blocks until
  /// all tasks complete. The first exception thrown by a task is rethrown
  /// here. Serial (inline) when n_tasks <= 1 or the pool has no workers.
  void run(std::size_t n_tasks, const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_;
  std::size_t workers_ = 0;
};

/// Pool the parallel kernels of this thread run on: the one bound by
/// ExecutionContext::Use, or the shared worker-less pool when nothing is
/// bound.
inline ThreadPool& current_pool() {
  return detail::t_pool != nullptr ? *detail::t_pool : detail::serial_pool();
}

/// Number of threads parallel kernels on this thread will use (>= 1): the
/// bound pool's size, 1 when nothing is bound.
inline std::size_t thread_count() { return current_pool().threads(); }

/// Bind `p` as this thread's current pool (nullptr unbinds: kernels run
/// serially); returns the previous binding. Prefer ExecutionContext::Use,
/// which pairs this with the matching obs-registry binding.
ThreadPool* exchange_current_pool(ThreadPool* p);

/// Split [begin, end) into one contiguous chunk per planned thread and run
/// fn(chunk_begin, chunk_end) on each. fn must only write disjoint state per
/// index; the partition boundaries carry no floating-point consequence for
/// elementwise kernels. `work` is the grain estimate gating fan-out: below
/// the calibrated threshold the whole range runs as one inline serial call.
/// The overloads without `work` assume one stream element per index — loops
/// whose body is heavier per index (FV cell fills, SpMV rows) must pass an
/// explicit estimate. Runs on current_pool(), as every kernel below does.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  grain::Work work);
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// Fixed chunk of every deterministic reduction: [0, n) splits into chunks
/// of this many elements (the last one shorter), whatever the thread count.
inline constexpr std::size_t kReductionChunk = 2048;

/// The reduction under every kernel below: chunk_sum(lo, hi) over each
/// fixed chunk of [0, n), partials summed in chunk order. A fused kernel
/// that must return the same bits as parallel_dot (StencilMatrix::
/// multiply_dot) partitions its work by these chunks too. `work` only
/// decides whether the chunks fan out.
double parallel_chunked_sum(std::size_t n, grain::Work work,
                            const std::function<double(std::size_t, std::size_t)>& chunk_sum);

/// Deterministic chunked reductions. The chunk size is a compile-time
/// constant (not thread-dependent), so results are identical across thread
/// counts — and across pools — to the last bit.
double parallel_dot(const Vector& a, const Vector& b);
double parallel_norm2(const Vector& v);
/// Sum of the elements (same fixed-chunk reduction).
double parallel_sum(const Vector& v);

/// y += alpha * x, partitioned across threads (elementwise, exact).
void parallel_axpy(double alpha, const Vector& x, Vector& y);

/// Fused single-pass CG kernels. Each replaces a sequence of axpy/hadamard
/// passes plus chunked reductions with one sweep over the operands, roughly
/// halving the memory traffic of a CG iteration. Per element the arithmetic
/// is identical to the unfused sequence, and the reductions use the same
/// fixed chunk size and in-order partial summation — so the results are
/// bit-identical to the separate kernels at every thread count.
struct CgFused {
  double rr = 0.0;  ///< <r, r> after the update
  double rz = 0.0;  ///< <r, z> after the update
};

/// x += alpha*p; r += (-alpha)*ap; z = inv_d ∘ r; returns {<r,r>, <r,z>}.
CgFused cg_fused_update(double alpha, const Vector& p, const Vector& ap,
                        const Vector& inv_d, Vector& x, Vector& r, Vector& z);

/// z = d ∘ r; returns <r, z> (deterministic chunked reduction).
double fused_hadamard_dot(const Vector& d, const Vector& r, Vector& z);

}  // namespace aeropack::numeric
