// obs::Report — a snapshot of the registry serialized to flat JSON in the
// BENCH_*.json style: one object with scalar-valued keys, section-prefixed
// ("counters.fv.picard_passes", "timers.fv.solve_steady.seconds"), stable
// (sorted) key order and round-trippable doubles. Consumers are the bench
// `--report out.json` flag and the CI bench-smoke counter gate
// (tools/check_report.py).
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "obs/registry.hpp"

namespace aeropack::obs {

class Report {
 public:
  /// Snapshot the calling thread's current registry (the one bound by
  /// ExecutionContext::Use, else the process default). `name` labels the run
  /// (bench binary or scenario); `threads` is supplied by the caller (obs
  /// sits below numeric, so it cannot ask the thread pool itself).
  static Report capture(const std::string& name, std::size_t threads);

  /// Snapshot a specific registry — e.g. an ExecutionContext's metrics after
  /// the solve finished, from a thread the context was never bound on.
  static Report capture(const Registry& registry, const std::string& name,
                        std::size_t threads);

  /// Attach run metadata (mesh sizes, DOF counts, config) as "meta.<key>".
  void set_meta(const std::string& key, double value);

  /// Merge an externally captured counter map under "counters.<prefix>.<key>"
  /// — how ScenarioService results fold each scenario's isolated registry
  /// into one report (keys stay sorted, so emission order is deterministic).
  void add_counters(const std::string& prefix,
                    const std::map<std::string, std::uint64_t>& counters);

  /// Gauge-valued counterpart of add_counters: merge an externally captured
  /// gauge map under "gauges.<prefix>.<key>" (ScenarioResult::gauges).
  void add_gauges(const std::string& prefix, const std::map<std::string, double>& gauges);

  const std::string& name() const { return name_; }
  std::size_t threads() const { return threads_; }
  const std::map<std::string, std::uint64_t>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::vector<TimerEntry>& timers() const { return timers_; }

  /// Flat-JSON serialization (sorted keys, "%.17g" doubles).
  std::string to_json() const;

  /// Write to_json() to `path`; throws std::runtime_error if unwritable.
  void write(const std::string& path) const;

 private:
  std::string name_;
  std::size_t threads_ = 0;
  std::map<std::string, double> meta_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::vector<TimerEntry> timers_;
};

}  // namespace aeropack::obs
