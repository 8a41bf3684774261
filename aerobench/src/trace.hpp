// In-memory span recorder of the traced replay.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public API: name, start, end, parent span and request id (the
// spec index). The span timers the program already keeps in each
// ExecutionContext registry (numeric.cg, fv.update_boundary, rom.*, ...)
// are merged under the span of the call that produced them. A registry
// keeps per-path totals, not instants, so a merged timer becomes one
// aggregate span of `calls` calls whose interval is laid out back to back
// with its siblings from the parent's start; its duration is exact, its
// placement is nominal. Everything stays in memory until write_json().
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"

namespace aerobench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  std::int64_t parent = -1;   ///< index into the span list, -1 for a root
  std::int64_t request = -1;  ///< spec index, -1 outside any request
  std::uint64_t calls = 1;    ///< > 1 only for merged registry timers
  bool aggregate = false;     ///< merged registry timer (nominal placement)

  double duration() const { return end - start; }
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children's intervals covers.
std::vector<double> self_times(const std::vector<Span>& spans);

class Recorder {
 public:
  /// A disabled recorder records nothing; its scopes cost one branch.
  explicit Recorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Rename span `id` once its outcome is known (a cache probe that hit).
  void rename(std::int64_t id, std::string_view name);

  /// RAII span under the innermost open span; id() is -1 when disabled.
  class Scope {
   public:
    Scope(Recorder& rec, std::string_view name, std::int64_t request)
        : rec_(rec), id_(rec.open(name, request)) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    Recorder& rec_;
    std::int64_t id_;
  };

  /// A registry timer that times the same call as a recorded span.
  struct Alias {
    std::string_view timer;  ///< top-level timer path, e.g. "fv.solve_steady"
    std::int64_t span;       ///< the recorded span of that call
  };

  /// Merge a registry's preorder timer list: a top-level timer named in
  /// `aliases` is its span (it adds no span; its children attach to that
  /// span), every other top-level timer becomes a child of `parent`.
  void merge_timers(std::int64_t parent, const std::vector<aeropack::obs::TimerEntry>& timers,
                    const std::vector<Alias>& aliases = {});

  const std::vector<Span>& spans() const { return spans_; }

  /// {"spans": [...]} with times in microseconds.
  void write_json(std::ostream& out) const;

 private:
  std::int64_t open(std::string_view name, std::int64_t request);
  /// Close span `id` (and any span still open inside it).
  void close(std::int64_t id);
  double now() const;

  bool enabled_;
  std::int64_t epoch_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace aerobench
