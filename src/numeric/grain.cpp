#include "numeric/grain.hpp"

#include <atomic>
#include <thread>

namespace aeropack::numeric::grain {

std::size_t hardware_parallelism() {
  static const std::size_t hw = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? static_cast<std::size_t>(n) : std::size_t{1};
  }();
  return hw;
}

namespace {
std::atomic<int> g_force_fan_out{0};
}  // namespace

bool fan_out_forced() {
  return g_force_fan_out.load(std::memory_order_relaxed) != 0;
}

ScopedForceFanOut::ScopedForceFanOut() {
  g_force_fan_out.fetch_add(1, std::memory_order_relaxed);
}

ScopedForceFanOut::~ScopedForceFanOut() {
  g_force_fan_out.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace aeropack::numeric::grain
