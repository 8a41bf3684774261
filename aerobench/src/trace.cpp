#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace aerobench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (std::size_t c : children[i]) {
      const double lo = std::max(s.start, spans[c].start);
      const double hi = std::min(s.end, spans[c].end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = s.duration() - covered;
  }
  return self;
}

Recorder::Recorder(bool enabled) : enabled_(enabled), epoch_ns_(steady_ns()) {}

double Recorder::now() const { return static_cast<double>(steady_ns() - epoch_ns_) * 1e-9; }

std::int64_t Recorder::open(std::string_view name, std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::string(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start = now();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Recorder::close(std::int64_t id) {
  if (!enabled_) return;
  // Scopes close innermost first; anything still open above `id` ends with it.
  const double t = now();
  while (!open_.empty()) {
    const std::int64_t top = open_.back();
    open_.pop_back();
    spans_[static_cast<std::size_t>(top)].end = t;
    if (top == id) break;
  }
}

void Recorder::rename(std::int64_t id, std::string_view name) {
  if (enabled_) spans_[static_cast<std::size_t>(id)].name = std::string(name);
}

void Recorder::merge_timers(std::int64_t parent,
                            const std::vector<aeropack::obs::TimerEntry>& timers,
                            const std::vector<Alias>& aliases) {
  if (!enabled_) return;
  // Next free start time per span, for the back-to-back layout.
  std::unordered_map<std::int64_t, double> next_start;
  std::vector<std::int64_t> at_depth;  // span standing for the open timer at each depth
  for (const aeropack::obs::TimerEntry& t : timers) {
    if (t.depth > at_depth.size()) continue;  // malformed preorder; skip the orphan
    at_depth.resize(t.depth);
    if (t.depth == 0) {
      const auto alias = std::find_if(aliases.begin(), aliases.end(),
                                      [&](const Alias& a) { return a.timer == t.path; });
      if (alias != aliases.end()) {
        at_depth.push_back(alias->span);
        continue;
      }
    }
    const std::int64_t owner = t.depth == 0 ? parent : at_depth.back();
    const Span& up = spans_[static_cast<std::size_t>(owner)];
    const auto slot = next_start.try_emplace(owner, up.start).first;
    Span s;
    const std::size_t cut = t.path.rfind('/');
    s.name = cut == std::string::npos ? t.path : t.path.substr(cut + 1);
    s.start = slot->second;
    s.end = s.start + t.seconds;
    s.parent = owner;
    s.request = up.request;
    s.calls = t.calls;
    s.aggregate = true;
    slot->second = s.end;
    spans_.push_back(std::move(s));
    at_depth.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  }
}

void Recorder::write_json(std::ostream& out) const {
  out << "{\"spans\": [";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %lld, \"request\": %lld, "
                  "\"calls\": %llu, \"aggregate\": %s}",
                  s.start * 1e6, s.end * 1e6, static_cast<long long>(s.parent),
                  static_cast<long long>(s.request), static_cast<unsigned long long>(s.calls),
                  s.aggregate ? "true" : "false");
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << json_escape(s.name)
        << "\", " << buf;
  }
  out << "\n]}\n";
}

}  // namespace aerobench
