#include "exec/context.hpp"

namespace aeropack {

ExecutionContext::ExecutionContext(const ExecutionConfig& config)
    : pool_(config.threads),
      registry_(config.telemetry),
      artifact_cache_(config.artifact_cache) {}

ExecutionContext::~ExecutionContext() = default;

}  // namespace aeropack
