#include "numeric/parallel.hpp"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace aeropack::numeric {

namespace detail {
thread_local constinit ThreadPool* t_pool = nullptr;

ThreadPool& serial_pool() {
  // Worker-less, so run() is an inline loop that touches no shared state:
  // every unbound thread may drive it at once. Intentionally leaked (never
  // a static object) so no thread can run a kernel on it after its
  // destruction at exit.
  static ThreadPool* const pool = new ThreadPool(1);
  return *pool;
}
}  // namespace detail

ThreadPool* exchange_current_pool(ThreadPool* p) {
  ThreadPool* prev = detail::t_pool;
  detail::t_pool = p;
  return prev;
}

namespace {

// Spin budget before a thread gives up and parks on the condition variable:
// a polite-pause phase (stays off the bus, leaves the core's SMT sibling
// alone) followed by a short yielding phase (matters on machines with fewer
// cores than threads, where the partner we are waiting on needs our core).
// Calibrated alongside the grain thresholds — see tools/calibrate_grain.cpp.
constexpr int kSpinRelax = 1024;
constexpr int kSpinYield = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

struct ThreadPool::Impl {
  // One cache line per worker: 1 while that worker is parked (or about to
  // park) on cv_work. run() only touches the mutex/cv when a slot reads 1,
  // so a warm dispatch is mutex-free.
  struct ParkSlot {
    alignas(64) std::atomic<unsigned> parked{0};
  };

  std::vector<std::thread> threads;
  std::mutex mutex;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  const std::function<void(std::size_t)>* job = nullptr;
  // Claims are generation-tagged through a monotonic window: the current
  // job owns task ids [task_base, task_end) and next_task never passes
  // task_end (CAS, not fetch_add), so a worker lingering in drain() from a
  // previous job cannot claim — or burn — a slot of the next job during
  // run()'s setup. task_base and job are plain members: they are written
  // before the release store of task_end and only read after a claim
  // validated against an acquire load of it.
  std::atomic<std::size_t> next_task{0};
  std::atomic<std::size_t> task_end{0};
  std::atomic<std::size_t> completed{0};
  std::size_t task_base = 0;
  // Bumped (seq_cst) once per published job; workers spin on it. Replaces
  // the old mutex-guarded generation counter.
  std::atomic<std::uint64_t> job_seq{0};
  std::atomic<bool> stop{false};
  // 1 while the driving thread is parked (or about to park) on cv_done.
  std::atomic<unsigned> driver_parked{0};
  std::unique_ptr<ParkSlot[]> park;
  std::size_t n_workers = 0;
  std::exception_ptr error;

  // Claim tasks until the current window is exhausted. A claim is valid
  // only while next_task < task_end; since next_task equals the previous
  // window's end when run() publishes a new one (every prior task was
  // claimed before run() returned), any valid claim lies inside the
  // current window, and the acquire load of task_end that admitted it
  // synchronizes with run()'s release store — job and task_base are
  // visible.
  void drain() {
    for (;;) {
      const std::size_t end = task_end.load(std::memory_order_acquire);
      std::size_t t = next_task.load(std::memory_order_relaxed);
      do {
        if (t >= end) return;
      } while (!next_task.compare_exchange_weak(t, t + 1, std::memory_order_acq_rel,
                                                std::memory_order_relaxed));
      // Snapshot the window's plain fields between the claim and the
      // completion RMW. In that interval they cannot change (task t is
      // claimed but not completed, so the driver is still waiting and the
      // next run() cannot have started rewriting them), and the release
      // half of the fetch_add below keeps these reads from sinking past the
      // point where the driver is allowed to proceed. Reading task_base in
      // the fetch_add expression itself would race with the next publish.
      const std::function<void(std::size_t)>* const fn = job;
      const std::size_t base = task_base;
      const std::size_t count = end - base;
      try {
        (*fn)(t - base);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
      // A valid claim implies `end` is the current job's window end, so
      // `count` is this job's task count. Exactly that many valid claims
      // exist — completed cannot overshoot. seq_cst pairs with the driver's
      // park protocol below; the RMW chain also forms a release sequence, so
      // the driver's final acquire/seq_cst read of `completed` synchronizes
      // with every task (and any `error` written under the mutex before it).
      if (completed.fetch_add(1, std::memory_order_seq_cst) + 1 >= count) {
        // Wake the driver only if it actually parked. If the seq_cst load
        // below reads 0, it precedes the driver's seq_cst parked store in
        // the total order, so our fetch_add above does too — the driver's
        // pre-wait predicate (seq_cst load of completed) then sees the full
        // count and never blocks. If it reads 1, the empty lock/unlock
        // ensures the driver is either not yet waiting (its predicate runs
        // after our unlock and sees the count via the mutex) or already
        // waiting (the notify reaches it).
        if (driver_parked.load(std::memory_order_seq_cst) != 0) {
          { std::lock_guard<std::mutex> lock(mutex); }
          cv_done.notify_all();
        }
      }
    }
  }

  // Publish-side half of the park protocol: after the (seq_cst) job_seq
  // bump, scan the park slots with seq_cst loads. A slot read as 0 means
  // that worker's park store follows our scan — and therefore our bump —
  // in the seq_cst total order, so its pre-wait predicate (seq_cst load of
  // job_seq) sees the new job and it never blocks. A slot read as 1 gets
  // the mutex take-and-drop + notify, which cannot lose the wakeup: the
  // worker is either already waiting (notified) or will run its predicate
  // after our unlock and observe the bump through the mutex.
  void wake_parked() {
    bool any = false;
    for (std::size_t w = 0; w < n_workers && !any; ++w)
      any = park[w].parked.load(std::memory_order_seq_cst) != 0;
    if (any) {
      { std::lock_guard<std::mutex> lock(mutex); }
      cv_work.notify_all();
    }
  }

  // `seen` is job_seq when the worker was spawned, read by the spawning
  // thread: a worker whose thread starts only after the first run()
  // published its job must still take part in it.
  void worker_loop(std::size_t self, std::uint64_t seen) {
    for (;;) {
      // Spin-then-park: catch back-to-back dispatches from a hot solver
      // loop without a futex round-trip, then get fully off-CPU.
      bool woke = false;
      for (int i = 0; i < kSpinRelax && !woke; ++i) {
        if (job_seq.load(std::memory_order_acquire) != seen) woke = true;
        else if (stop.load(std::memory_order_acquire)) return;
        else cpu_relax();
      }
      for (int i = 0; i < kSpinYield && !woke; ++i) {
        if (job_seq.load(std::memory_order_acquire) != seen) woke = true;
        else if (stop.load(std::memory_order_acquire)) return;
        else std::this_thread::yield();
      }
      if (!woke) {
        park[self].parked.store(1, std::memory_order_seq_cst);
        {
          std::unique_lock<std::mutex> lock(mutex);
          // seq_cst loads in the predicate: see wake_parked() for why the
          // first (pre-wait) evaluation is guaranteed to observe a bump
          // whose publisher read this slot as 0.
          cv_work.wait(lock, [&] {
            return stop.load(std::memory_order_seq_cst) ||
                   job_seq.load(std::memory_order_seq_cst) != seen;
          });
        }
        park[self].parked.store(0, std::memory_order_relaxed);
        if (stop.load(std::memory_order_acquire)) return;
      }
      seen = job_seq.load(std::memory_order_acquire);
      drain();
    }
  }

  void spawn(std::size_t workers) {
    n_workers = workers;
    park = workers > 0 ? std::make_unique<ParkSlot[]>(workers) : nullptr;
    threads.reserve(workers);
    const std::uint64_t seen = job_seq.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < workers; ++i)
      threads.emplace_back([this, i, seen] { worker_loop(i, seen); });
  }

  void join_all() {
    stop.store(true, std::memory_order_seq_cst);
    { std::lock_guard<std::mutex> lock(mutex); }
    cv_work.notify_all();
    for (std::thread& t : threads) t.join();
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : impl_(new Impl), workers_(threads == 0 ? 0 : threads - 1) {
  impl_->spawn(workers_);
}

ThreadPool::~ThreadPool() {
  impl_->join_all();
  delete impl_;
}

void ThreadPool::run(std::size_t n_tasks, const std::function<void(std::size_t)>& fn) {
  if (n_tasks == 0) return;
  // Deepest task window published at once. Thread-dependent (scheduling)
  // telemetry: report-only, excluded from the deterministic-counter
  // contracts in tests/obs/. Recorded into the driving thread's current
  // registry — workers never touch instruments.
  static thread_local obs::HighwaterHandle queue_hw{"numeric.pool.queue_depth_highwater"};
  queue_hw.record(n_tasks);
  if (workers_ == 0 || n_tasks == 1) {
    for (std::size_t t = 0; t < n_tasks; ++t) fn(t);
    return;
  }
  Impl& im = *impl_;
  // Job setup is mutex-free: `job`, `task_base`, `completed` and `error`
  // cannot be touched by a stale worker (its claims are bounded by the old
  // window, which the previous run() fully consumed), and the release store
  // of task_end publishes them to every worker the new window admits.
  // `error` reads/writes never race either: writes happen under the mutex
  // between a valid claim and the matching completed increment, and the
  // driver only resets/reads outside [publish, all-complete).
  im.job = &fn;
  im.completed.store(0, std::memory_order_relaxed);
  im.error = nullptr;
  im.task_base = im.next_task.load(std::memory_order_relaxed);
  im.task_end.store(im.task_base + n_tasks, std::memory_order_release);
  im.job_seq.fetch_add(1, std::memory_order_seq_cst);
  im.wake_parked();
  im.drain();  // calling thread participates
  // Completion: spin briefly (workers finishing their last task are at most
  // a few hundred ns away on a warm pool), then park on cv_done behind the
  // driver_parked flag — the mirror of the worker protocol in drain().
  bool done = false;
  for (int i = 0; i < kSpinRelax && !done; ++i) {
    if (im.completed.load(std::memory_order_acquire) >= n_tasks) done = true;
    else cpu_relax();
  }
  for (int i = 0; i < kSpinYield && !done; ++i) {
    if (im.completed.load(std::memory_order_acquire) >= n_tasks) done = true;
    else std::this_thread::yield();
  }
  if (!done) {
    im.driver_parked.store(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(im.mutex);
      im.cv_done.wait(lock, [&] {
        return im.completed.load(std::memory_order_seq_cst) >= n_tasks;
      });
    }
    im.driver_parked.store(0, std::memory_order_relaxed);
  }
  if (im.error) {
    std::exception_ptr e = im.error;
    im.error = nullptr;
    std::rethrow_exception(e);
  }
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  grain::Work work) {
  if (begin >= end) return;
  static thread_local obs::CounterHandle for_calls{"numeric.parallel_for.calls"};
  static thread_local obs::CounterHandle for_chunks{"numeric.parallel_for.chunks"};
  for_calls.add();
  const std::size_t n = end - begin;
  // Granularity gate: below the calibrated threshold the whole range runs
  // inline — identical results (elementwise kernels are exact), no dispatch.
  ThreadPool& pool = current_pool();
  const std::size_t planned = grain::plan_threads(work, pool.threads());
  if (planned == 1 || n < 2) {
    for_chunks.add();
    fn(begin, end);
    return;
  }
  const std::size_t chunks = std::min(planned, n);
  for_chunks.add(chunks);
  const std::size_t base = n / chunks, extra = n % chunks;
  pool.run(chunks, [&](std::size_t c) {
    // First `extra` chunks carry one extra element.
    const std::size_t lo = begin + c * base + std::min(c, extra);
    const std::size_t hi = lo + base + (c < extra ? 1 : 0);
    fn(lo, hi);
  });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for(begin, end, fn,
               grain::Work::elements(end > begin ? end - begin : 0,
                                     grain::Cost::kStream));
}

namespace {

// kReductionChunk (parallel.hpp) is independent of thread count, so
// per-chunk partial sums and their in-order combination are reproducible
// bit-for-bit.
template <typename ChunkSum>
double chunked_reduce(std::size_t n, grain::Work work, ChunkSum&& chunk_sum) {
  const std::size_t chunks = (n + kReductionChunk - 1) / kReductionChunk;
  if (chunks <= 1) return n == 0 ? 0.0 : chunk_sum(0, n);
  std::vector<double> partial(chunks, 0.0);
  const auto fill = [&](std::size_t c) {
    const std::size_t lo = c * kReductionChunk;
    const std::size_t hi = std::min(lo + kReductionChunk, n);
    partial[c] = chunk_sum(lo, hi);
  };
  // The chunk layout is fixed; grain only decides who executes the chunks,
  // so the serial fallback is bit-identical to the fanned-out path.
  ThreadPool& pool = current_pool();
  if (grain::plan_threads(work, pool.threads()) == 1) {
    for (std::size_t c = 0; c < chunks; ++c) fill(c);
  } else {
    pool.run(chunks, fill);
  }
  double acc = 0.0;
  for (const double p : partial) acc += p;  // in chunk order: deterministic
  return acc;
}

/// Two-accumulator variant for the fused CG kernels: same fixed chunk
/// layout, each partial pair summed in chunk order.
template <typename ChunkSum>
void chunked_reduce2(std::size_t n, grain::Work work, double& r0, double& r1,
                     ChunkSum&& chunk_sum) {
  r0 = 0.0;
  r1 = 0.0;
  const std::size_t chunks = (n + kReductionChunk - 1) / kReductionChunk;
  if (chunks <= 1) {
    if (n != 0) chunk_sum(0, n, r0, r1);
    return;
  }
  std::vector<double> p0(chunks, 0.0), p1(chunks, 0.0);
  const auto fill = [&](std::size_t c) {
    const std::size_t lo = c * kReductionChunk;
    const std::size_t hi = std::min(lo + kReductionChunk, n);
    chunk_sum(lo, hi, p0[c], p1[c]);
  };
  ThreadPool& pool = current_pool();
  if (grain::plan_threads(work, pool.threads()) == 1) {
    for (std::size_t c = 0; c < chunks; ++c) fill(c);
  } else {
    pool.run(chunks, fill);
  }
  double a0 = 0.0, a1 = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    a0 += p0[c];
    a1 += p1[c];
  }
  r0 = a0;
  r1 = a1;
}

}  // namespace

double parallel_chunked_sum(std::size_t n, grain::Work work,
                            const std::function<double(std::size_t, std::size_t)>& chunk_sum) {
  return chunked_reduce(n, work, chunk_sum);
}

double parallel_dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("parallel_dot: size mismatch");
  return chunked_reduce(a.size(),
                        grain::Work::elements(a.size(), grain::Cost::kDot),
                        [&](std::size_t lo, std::size_t hi) {
                          double s = 0.0;
                          for (std::size_t i = lo; i < hi; ++i) s += a[i] * b[i];
                          return s;
                        });
}

double parallel_norm2(const Vector& v) { return std::sqrt(parallel_dot(v, v)); }

double parallel_sum(const Vector& v) {
  return chunked_reduce(v.size(), grain::Work::elements(v.size(), grain::Cost::kDot),
                        [&](std::size_t lo, std::size_t hi) {
                          double s = 0.0;
                          for (std::size_t i = lo; i < hi; ++i) s += v[i];
                          return s;
                        });
}

void parallel_axpy(double alpha, const Vector& x, Vector& y) {
  if (x.size() != y.size()) throw std::invalid_argument("parallel_axpy: size mismatch");
  parallel_for(0, x.size(),
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) y[i] += alpha * x[i];
               },
               grain::Work::elements(x.size(), grain::Cost::kStream));
}

CgFused cg_fused_update(double alpha, const Vector& p, const Vector& ap,
                        const Vector& inv_d, Vector& x, Vector& r, Vector& z) {
  const std::size_t n = p.size();
  if (ap.size() != n || inv_d.size() != n || x.size() != n || r.size() != n ||
      z.size() != n)
    throw std::invalid_argument("cg_fused_update: size mismatch");
  // Negating alpha once reproduces parallel_axpy(-alpha, ap, r) bit-for-bit;
  // computing x[i] + alpha * (-ap[i]) would not.
  const double neg_alpha = -alpha;
  CgFused out;
  chunked_reduce2(n, grain::Work::elements(n, grain::Cost::kFusedCg), out.rr, out.rz,
                  [&](std::size_t lo, std::size_t hi, double& s_rr, double& s_rz) {
                    double rr = 0.0, rz = 0.0;
                    for (std::size_t i = lo; i < hi; ++i) {
                      x[i] += alpha * p[i];
                      r[i] += neg_alpha * ap[i];
                      const double zi = inv_d[i] * r[i];
                      z[i] = zi;
                      rr += r[i] * r[i];
                      rz += r[i] * zi;
                    }
                    s_rr = rr;
                    s_rz = rz;
                  });
  return out;
}

double fused_hadamard_dot(const Vector& d, const Vector& r, Vector& z) {
  const std::size_t n = d.size();
  if (r.size() != n || z.size() != n)
    throw std::invalid_argument("fused_hadamard_dot: size mismatch");
  return chunked_reduce(n, grain::Work::elements(n, grain::Cost::kDot),
                        [&](std::size_t lo, std::size_t hi) {
                          double s = 0.0;
                          for (std::size_t i = lo; i < hi; ++i) {
                            const double zi = d[i] * r[i];
                            z[i] = zi;
                            s += r[i] * zi;
                          }
                          return s;
                        });
}

}  // namespace aeropack::numeric
