#include "exec/context.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace aeropack {

namespace {

numeric::ThreadPool& check_borrowed(numeric::ThreadPool& pool, const ExecutionConfig& config) {
  const std::size_t threads = std::max<std::size_t>(config.threads, 1);
  if (threads != pool.threads())
    throw std::invalid_argument("ExecutionContext: config.threads = " + std::to_string(threads) +
                                " differs from the borrowed pool's " +
                                std::to_string(pool.threads()) + " threads");
  return pool;
}

}  // namespace

ExecutionContext::ExecutionContext(const ExecutionConfig& config)
    : owned_pool_(std::in_place, config.threads),
      pool_(&*owned_pool_),
      registry_(config.telemetry),
      artifact_cache_(config.artifact_cache) {}

ExecutionContext::ExecutionContext(numeric::ThreadPool& pool, const ExecutionConfig& config)
    : pool_(&check_borrowed(pool, config)),
      registry_(config.telemetry),
      artifact_cache_(config.artifact_cache) {}

ExecutionContext::~ExecutionContext() = default;

}  // namespace aeropack
