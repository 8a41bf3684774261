// Seeded workload generators of the AeroPack benchmark.
//
// A workload is an infinite, seeded stream of core::ScenarioSpec values plus
// the load shape that drives it through core::ScenarioService. Spec `i` of
// a stream is a pure function of (seed, i): clients of a closed loop pull
// indices from a shared counter, so the service receives the same specs in
// every run with that seed, only the interleaving differs. The service never
// sees the seed — it receives generated specs only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario_service.hpp"
#include "core/scenario_spec.hpp"

namespace aerobench {

/// Closed-loop load: `clients` threads each submit a spec, wait() on it,
/// then submit the next, against a service of `workers` x
/// `threads_per_scenario`.
struct LoadShape {
  std::size_t clients = 1;
  std::size_t workers = 1;
  std::size_t threads_per_scenario = 1;
};

struct Workload {
  std::string name;  ///< BENCHMARK.json records why each workload exists
  std::string mix;   ///< human-readable spec mix
  LoadShape shape;
  std::vector<std::string> graphs;  ///< every graph the stream can emit
  /// Spec `index` of the stream for `seed`.
  aeropack::core::ScenarioSpec (*spec_at)(std::uint64_t seed, std::uint64_t index);
  /// One warm-up spec per shared artifact the workload uses (FV assembly,
  /// modal factorization, compact model). Their content never collides
  /// with a generated spec.
  std::vector<aeropack::core::ScenarioSpec> (*warmups)();
  /// Specs 0..round_specs-1 make one timed round, a whole number of the
  /// stream's mix blocks. The count is fixed, not set by a deadline, so
  /// every round and every commit serves the same specs: the tail
  /// percentile's rung and the dedup memo behind peak_rss_mb rest on the
  /// same sample whatever the program's speed.
  std::uint64_t round_specs;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// Workload by name, or null.
const Workload* find_workload(std::string_view name);

/// Register the rom and mission graphs on top of the built-in ones.
void register_graphs(aeropack::core::ScenarioService& service);

/// Deterministic counter-based generator: stream `index` of `seed`.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t index);
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n), n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

}  // namespace aerobench
