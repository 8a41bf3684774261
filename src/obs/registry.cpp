#include "obs/registry.hpp"

#include <chrono>
#include <cstdlib>
#include <deque>
#include <mutex>

namespace aeropack::obs {

namespace detail {
thread_local constinit Registry* t_current = nullptr;
}  // namespace detail

Registry* exchange_current(Registry* r) {
  Registry* prev = detail::t_current;
  detail::t_current = r;
  return prev;
}

void enable() { current().enable(); }
void disable() { current().disable(); }

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A set, non-empty, non-"0" AEROPACK_TELEMETRY arms the process-default
// registry at first use (per-context registries arm via ExecutionConfig).
bool env_telemetry_enabled() {
  const char* v = std::getenv("AEROPACK_TELEMETRY");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

std::uint64_t next_registry_uid() {
  // Starts at 1: handles reserve 0 as their unresolved sentinel. Never
  // reused, so a stale handle can never mistake a new registry allocated at
  // a destroyed one's address for the registry it cached.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// One span-tree node. calls/ns are atomics so closing a span never takes the
// tree mutex; the mutex only guards structure (child lookup/creation).
struct TimerNode {
  std::string name;
  TimerNode* parent = nullptr;
  std::deque<TimerNode> children;  // deque: child addresses must stay stable
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::int64_t> ns{0};
};

// Innermost open span of this thread; new spans attach under it. Null means
// the next span opens at the root of the thread's current registry. Spans
// must close before the current registry changes, so one cursor serves all
// registries.
thread_local TimerNode* t_span = nullptr;

}  // namespace

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map: node handles keep instrument addresses stable across inserts.
  std::map<std::string, Counter> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Highwater> highwaters;
  TimerNode timer_root;  // name empty; never reported itself

  TimerNode* child_of(TimerNode* parent, const char* name) {
    std::lock_guard<std::mutex> lock(mutex);
    for (auto& c : parent->children)
      if (c.name == name) return &c;
    TimerNode& node = parent->children.emplace_back();
    node.name = name;
    node.parent = parent;
    return &node;
  }

  static void reset_node(TimerNode& node) {
    node.calls.store(0, std::memory_order_relaxed);
    node.ns.store(0, std::memory_order_relaxed);
    for (auto& c : node.children) reset_node(c);
  }

  void flatten(const TimerNode& node, const std::string& prefix, std::size_t depth,
               std::vector<TimerEntry>& out) const {
    for (const auto& c : node.children) {
      const std::string path = prefix.empty() ? c.name : prefix + "/" + c.name;
      const std::uint64_t calls = c.calls.load(std::memory_order_relaxed);
      if (calls > 0)
        out.push_back({path, calls,
                       static_cast<double>(c.ns.load(std::memory_order_relaxed)) * 1e-9,
                       depth});
      flatten(c, path, depth + 1, out);
    }
  }
};

Registry::Registry(bool enabled)
    : armed_(enabled), uid_(next_registry_uid()), impl_(new Impl) {}

Registry::~Registry() { delete impl_; }

Registry& Registry::instance() {
  // Leaked: telemetry may fire from destructors of other static objects.
  static Registry* const reg = new Registry(env_telemetry_enabled());
  return *reg;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->counters.try_emplace(name, &armed_).first->second;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->gauges.try_emplace(name, &armed_).first->second;
}

Highwater& Registry::highwater(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->highwaters.try_emplace(name, &armed_).first->second;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, c] : impl_->counters) c.reset();
  for (auto& [name, g] : impl_->gauges) g.reset();
  for (auto& [name, h] : impl_->highwaters) h.reset();
  Impl::reset_node(impl_->timer_root);
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : impl_->counters) out[name] = c.value();
  for (const auto& [name, h] : impl_->highwaters) out[name] = h.value();
  return out;
}

std::map<std::string, double> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::map<std::string, double> out;
  for (const auto& [name, g] : impl_->gauges) out[name] = g.value();
  return out;
}

std::vector<TimerEntry> Registry::timers() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<TimerEntry> out;
  impl_->flatten(impl_->timer_root, "", 0, out);
  return out;
}

ScopedTimer::ScopedTimer(const char* name) {
  Registry& reg = current();
  if (!reg.enabled()) return;
  Registry::Impl* impl = reg.impl_;
  TimerNode* parent = t_span != nullptr ? t_span : &impl->timer_root;
  TimerNode* node = impl->child_of(parent, name);
  node_ = node;
  parent_ = t_span;
  t_span = node;
  t0_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (node_ == nullptr) return;  // telemetry was dormant at construction
  TimerNode* node = static_cast<TimerNode*>(node_);
  node->calls.fetch_add(1, std::memory_order_relaxed);
  node->ns.fetch_add(now_ns() - t0_ns_, std::memory_order_relaxed);
  t_span = static_cast<TimerNode*>(parent_);
}

std::string indexed_key(const char* prefix, std::size_t index, const char* suffix) {
  std::string key(prefix);
  key += '.';
  if (index < 10) key += '0';
  key += std::to_string(index);
  key += '.';
  key += suffix;
  return key;
}

}  // namespace aeropack::obs
