// rom + core::ArtifactCache glue: build-once / evaluate-many lookup for
// compact models (DESIGN.md "Scenario service").
//
// A RomModel is the most expensive artifact in the stack (dozens of
// full-order snapshot solves) and the cheapest to reuse (its steady() is a
// const rank x rank solve in microseconds), so it is the headline win of
// the cross-scenario cache: one build amortizes over thousands of
// load/boundary variants. rom_key() hashes everything build_rom consumes —
// the source model's structural hash (geometry, materials, interfaces,
// scheme), the full port/map layout and every RomOptions knob — over exact
// bit patterns, so key-equal builds are bitwise-equal models and a cache
// hit evaluates identically to a cold build.
#pragma once

#include <cstdint>
#include <memory>

#include "core/artifact_cache.hpp"
#include "rom/rom.hpp"

namespace aeropack::rom {

/// Structural identity of build_rom(model, spec, opts): FNV-1a over the
/// model's structural hash, the spec layout and the options. Sources and
/// boundaries on `model` are deliberately excluded — build_rom rebases onto
/// `spec`, so models differing only in loads share a key (and a ROM).
std::uint64_t rom_key(const thermal::FvModel& model, const RomSpec& spec,
                      const RomOptions& opts = {});

/// Approximate resident size of a built model for cache cost accounting
/// (basis + reduced operators + training projections).
std::size_t rom_cost_bytes(const RomModel& model);

/// Cache-aware build: probe `cache` under rom_key(), build on miss (outside
/// the cache locks) and insert. A null cache always builds fresh — the
/// path of direct calls and of services built with use_cache off. The
/// returned model is immutable and safe to evaluate concurrently from any
/// number of threads.
std::shared_ptr<const RomModel> get_or_build_rom(core::ArtifactCache* cache,
                                                 const thermal::FvModel& model,
                                                 const RomSpec& spec, const RomOptions& opts = {});

}  // namespace aeropack::rom
