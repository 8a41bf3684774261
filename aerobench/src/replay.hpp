// Traced replay: runs generated specs the way core::ScenarioService would —
// content hash, dedup memo, a fresh ExecutionContext bound with Use, cache
// probes and the graph's solve — but on the calling thread and through each
// layer's public functions only, with a span around every layer call.
//
// Each graph below mirrors one registered service graph call for call (the
// built-ins in core/scenario_service.cpp, rom/service_graphs.cpp and
// mission/service_graphs.cpp). The replay's outputs must equal the
// service's bitwise; main.cpp checks that, which is what proves the
// per-layer times describe the same computation the service ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "core/artifact_cache.hpp"
#include "core/scenario_spec.hpp"
#include "trace.hpp"

namespace aerobench {

/// Computed CG traffic per iteration on a 7-point grid of `cells` cells:
/// one SpMV over a size_t-indexed CSR matrix with ideal reuse of x, plus the
/// vector streams of the fused Jacobi-CG iteration (dot <p,Ap>, the fused
/// x/r/z update with its two reductions, the p update). Cache misses are
/// ignored, so these are computed bytes, not measured traffic.
struct CgWorkModel {
  double bytes = 0.0;  ///< bytes read + written per iteration
  double flops = 0.0;  ///< floating-point operations per iteration
};

/// Nonzeros of the 7-point FV operator on an nx x ny x nz grid.
std::size_t seven_point_nonzeros(std::size_t nx, std::size_t ny, std::size_t nz);
CgWorkModel cg_work_per_iteration(std::size_t nx, std::size_t ny, std::size_t nz);

struct ReplayStats {
  /// Specs replayed that were not served by the dedup memo.
  std::uint64_t executed = 0;
  /// Counters of every scenario context, summed.
  std::map<std::string, std::uint64_t> counters;
  /// CG iterations with a known grid, and their computed traffic.
  std::uint64_t cg_iterations_modelled = 0;
  double cg_bytes = 0.0;
  double cg_flops = 0.0;
};

class Replayer {
 public:
  /// Contexts get `threads` pool threads; telemetry (the registries' own
  /// counters and timers) is armed exactly when `rec` records.
  Replayer(Recorder& rec, std::size_t threads);

  /// Replay `spec` as request `request` and return its outputs.
  std::map<std::string, double> replay(const aeropack::core::ScenarioSpec& spec,
                                       std::int64_t request);

  const ReplayStats& stats() const { return stats_; }
  const aeropack::core::ArtifactCache& cache() const { return cache_; }

 private:
  Recorder& rec_;
  std::size_t threads_;
  aeropack::core::ArtifactCache cache_;
  std::unordered_map<std::uint64_t, std::map<std::string, double>> memo_;
  ReplayStats stats_;
};

}  // namespace aerobench
