// Order statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <vector>

namespace aerobench {

/// Nearest-rank median of `values` (any order, non-empty): the value at
/// 1-based rank ceil(n / 2). Every percentile here is nearest-rank.
double median(std::vector<double> values);

/// A tail percentile together with the evidence behind it.
struct TailPoint {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count
  std::size_t beyond = 0;   ///< samples strictly past the percentile's rank
};

/// The highest percentile of the ladder p50, p75, p90, p99, p99.9, p99.99,
/// p99.999 that still has at least `min_beyond` samples beyond its rank.
/// Rungs a decade apart leave 10 to 100 samples beyond the chosen one, so
/// the tail does not rest on a handful of outliers, and the chosen rung only
/// changes when the sample count crosses a power of ten (p75 serves samples
/// too small for p90). With too few samples for any rung the median is
/// returned, and `beyond` says how thin the evidence is.
TailPoint tail_latency(std::vector<double> samples, std::size_t min_beyond = 10);

}  // namespace aerobench
