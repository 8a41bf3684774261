#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aerobench {

namespace {

std::size_t rank_of(std::size_t n, double percentile) {
  const double r = std::ceil(percentile / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 99.0, 99.9, 99.99, 99.999};

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no samples");
  std::sort(values.begin(), values.end());
  return values[rank_of(values.size(), 50.0) - 1];
}

TailPoint tail_latency(std::vector<double> samples, std::size_t min_beyond) {
  if (samples.empty()) throw std::invalid_argument("tail_latency: no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  TailPoint best;
  best.samples = n;
  best.percentile = kTailLadder[0];
  best.beyond = n - rank_of(n, best.percentile);
  for (double p : kTailLadder) {
    const std::size_t beyond = n - rank_of(n, p);
    if (beyond < min_beyond) break;
    best.percentile = p;
    best.beyond = beyond;
  }
  best.value = samples[rank_of(n, best.percentile) - 1];
  return best;
}

}  // namespace aerobench
