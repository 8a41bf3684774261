// numeric::grain — granularity-aware dispatch thresholds for the parallel
// layer.
//
// Every parallel entry point estimates its work as `elements × cost class`
// and asks plan_threads() how many threads that work justifies. Below the
// fan-out threshold the kernel runs as a plain serial loop: no pool, no
// dispatch, no synchronization — which is what keeps an 84-DOF modal solve
// or an 8^3 grid from paying microseconds of wakeup latency for microseconds
// of arithmetic. Above it, the thread count is capped so every participating
// thread carries at least kMinWorkPerThread units.
//
// Because the deterministic-reduction contract fixes the chunk size and
// summation order independently of thread count (see parallel.hpp), the
// serial fallback is bit-identical to the parallel path — grain decisions
// never change results, only scheduling.
//
// The constants below are calibrated: regenerate them with the
// `calibrate_grain` tool (tools/calibrate_grain.cpp), which measures the
// warm dispatch round-trip and the per-element cost of each kernel class on
// the target machine and prints a replacement block for this header.
#pragma once

#include <cstddef>
#include <cstdint>

namespace aeropack::numeric::grain {

/// Relative per-element cost class of a kernel, in stream-element units
/// (one load + one fused multiply-add + one store ≈ 1.0).
enum class Cost : std::uint8_t {
  kStream = 0,  ///< copy / axpy / scale / elementwise update
  kDot,         ///< chunked reduction (dot, norm2)
  kSpmv,        ///< CSR multiply, estimated per *nonzero* (irregular gather)
  kCell,        ///< FV assembly fill, per cell (7-point stencil + indexing)
  kFusedCg,     ///< fused CG update: ~4 streams + 2 reductions per element
  kSpmvBlock,   ///< block CSR multiply, per nonzero *per column* (one gather
                ///< of a contiguous row serves every column)
};

/// Weight of one element of `c` relative to one stream element.
constexpr double cost_weight(Cost c) {
  switch (c) {
    case Cost::kStream: return 1.0;
    case Cost::kDot: return 1.0;
    case Cost::kSpmv: return 1.5;
    case Cost::kCell: return 6.0;
    case Cost::kFusedCg: return 3.0;
    // Cache-resident blocks, the modal solver's, measure ~0.5;
    // calibrate_grain's memory-bound 32^3 sweep reads ~0.7.
    case Cost::kSpmvBlock: return 0.5;
  }
  return 1.0;
}

/// Work estimate a kernel hands to the dispatch layer. Callers that know
/// their true element count use elements(); parallel_for's plain overload
/// defaults to one stream unit per index, which under-estimates loops whose
/// body touches many elements per index — those sites must pass an explicit
/// estimate (see CONTRIBUTING.md "Kernels and grain estimates").
struct Work {
  double units = 0.0;

  static constexpr Work elements(std::size_t n, Cost c) {
    return Work{static_cast<double>(n) * cost_weight(c)};
  }
};

// Calibrated thresholds (stream-element units). Regenerate with
// `calibrate_grain`; the defaults below are deliberately conservative so a
// kernel only fans out when the win is clear on commodity hardware:
//  - kMinWorkToFanOut: total work below which dispatch never pays for
//    itself — one warm spin-park round-trip costs on the order of a few
//    thousand stream elements.
//  - kMinWorkPerThread: each additional thread must bring at least this
//    much work, which caps the fan-out width on mid-size problems.
inline constexpr double kMinWorkToFanOut = 16384.0;
inline constexpr double kMinWorkPerThread = 8192.0;

/// Physical parallelism of this machine (hardware_concurrency, min 1).
/// Fan-out is capped here even when the pool is larger: extra pool threads
/// on a compute-bound kernel only oversubscribe cores — context switches
/// with no bandwidth or ALU gain. Pools sized past the hardware remain
/// valid (determinism does not depend on who executes a chunk); they just
/// stop being scheduled wider than the machine.
std::size_t hardware_parallelism();

/// True while a ScopedForceFanOut is alive on any thread.
bool fan_out_forced();

/// Test hook: while alive, plan_threads() returns the full pool width for
/// any work estimate, so determinism/bit-identity suites exercise the real
/// parallel paths even for small inputs or on small machines. Nests.
class ScopedForceFanOut {
 public:
  ScopedForceFanOut();
  ~ScopedForceFanOut();
  ScopedForceFanOut(const ScopedForceFanOut&) = delete;
  ScopedForceFanOut& operator=(const ScopedForceFanOut&) = delete;
};

/// Number of threads `w` justifies on a pool of `pool_threads` (>= 1).
/// Returns 1 (serial fallback) below kMinWorkToFanOut, otherwise
/// min(pool_threads, hardware_parallelism(), 1 + w / kMinWorkPerThread).
inline std::size_t plan_threads(const Work& w, std::size_t pool_threads) {
  if (pool_threads <= 1) return 1;
  if (fan_out_forced()) return pool_threads;
  if (w.units < kMinWorkToFanOut) return 1;
  const std::size_t hw = hardware_parallelism();
  const std::size_t cap = pool_threads < hw ? pool_threads : hw;
  const auto justified =
      1 + static_cast<std::size_t>(w.units / kMinWorkPerThread);
  return justified < cap ? justified : cap;
}

/// Smallest element count of class `c` that plan_threads() will fan out
/// (the serial-threshold boundary; exercised by the grain boundary tests).
inline constexpr std::size_t fan_out_elements(Cost c) {
  const double n = kMinWorkToFanOut / cost_weight(c);
  std::size_t k = static_cast<std::size_t>(n);
  return static_cast<double>(k) < n ? k + 1 : k;
}

}  // namespace aeropack::numeric::grain
