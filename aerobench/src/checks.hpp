// Output checks of the benchmark: bitwise identity of scenario outputs and
// per-graph sanity bounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/scenario_spec.hpp"

namespace aerobench {

/// FNV-1a over every output name and the exact bits of its value: equal
/// hashes are the bitwise-equal outputs the cold-vs-hit contract promises.
/// `structure_assemblies` is skipped: it counts whether the run assembled
/// (1 cold, 0 on a cached assembly), so it differs between the two by design.
std::uint64_t values_hash(const std::map<std::string, double>& values);

/// Per-graph sanity bounds on a successful scenario's outputs. Returns an
/// empty string when they hold, else what failed.
///  - every graph: at least one output, all finite;
///  - fv_slab_steady: |energy_residual| <= 1e-6 * power_w;
///  - rom_*_steady: error_estimate <= sqrt(RomOptions::energy_tolerance);
///  - modal_plate: 0 < f1_hz <= f2_hz;
///  - mission_*: at least one accepted step, peak >= final maximum.
std::string sanity_check(const aeropack::core::ScenarioSpec& spec,
                         const std::map<std::string, double>& values);

}  // namespace aerobench
