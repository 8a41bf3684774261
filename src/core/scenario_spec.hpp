// core::ScenarioSpec — the serializable scenario schema of the scenario
// service layer (DESIGN.md "Scenario service").
//
// A spec is pure data: a named solver graph plus three flat key->double
// maps (design parameters, load deltas, boundary deltas). Because it is
// data and not a closure, the service can
//  - content-hash it (FNV-1a over exact IEEE-754 bit patterns) and
//    deduplicate identical submissions to a single solve, and
//  - structurally hash the geometry-determining subset (graph + params)
//    to key shared immutable artifacts in core::ArtifactCache: two specs
//    that differ only in loads/boundaries share one FV assembly / modal
//    factorization.
//
// serialize()/deserialize() round-trip losslessly: doubles are written as
// C99 hexfloats ("%a"), so the parsed spec hashes to the same value as the
// original. The format is a single line, safe to embed in reports or logs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace aeropack::core {

struct ScenarioSpec {
  /// Display / result name. NOT part of content_hash(): two submissions
  /// that differ only in name are the same solve and deduplicate.
  std::string name;
  /// Registered solver-graph kind (e.g. "fv_slab_steady", "modal_plate",
  /// "seb_point", "rom_board_steady"). Unknown graphs fail at execution
  /// with a descriptive ScenarioResult::error, not at submission.
  std::string graph;
  /// Design parameters that shape geometry / discretization / the operator
  /// structure. Part of both hashes.
  std::map<std::string, double> params;
  /// Source-term deltas (powers, fluxes). Content hash only — they never
  /// change the operator structure.
  std::map<std::string, double> loads;
  /// Boundary deltas (sink temperatures, film coefficients). Content hash
  /// only.
  std::map<std::string, double> boundaries;

  /// Identity of the *solve*: graph + params + loads + boundaries (name
  /// excluded). Equal hashes mean equal inputs bit-for-bit, so the solves
  /// are interchangeable and the service runs one of them.
  std::uint64_t content_hash() const;
  /// Identity of the *operator structure*: graph + params only. Specs with
  /// equal structural hashes share cacheable artifacts (FV assemblies,
  /// factorizations) even when their loads/boundaries differ.
  std::uint64_t structural_hash() const;

  /// One-line, lossless text form ("scenario/1|name=...|graph=...|p:k=v|...").
  /// Doubles are %a hexfloats; '%', '|' and '=' in strings are %XX-escaped.
  std::string serialize() const;
  /// Inverse of serialize(). Throws std::invalid_argument on malformed
  /// input (wrong magic, bad escape, unparsable hexfloat, duplicate key) and
  /// on a non-finite value (nan, inf, or a literal such as 1e400 that
  /// overflows to inf), naming its key.
  static ScenarioSpec deserialize(const std::string& text);

  friend bool operator==(const ScenarioSpec& a, const ScenarioSpec& b) = default;
};

/// The one reader solver graphs use for a spec's params/loads/boundaries:
/// the value stored under `key`, or `fallback` when the map has none.
double value_or(const std::map<std::string, double>& m, const std::string& key,
                double fallback);

/// Integer form for counts and sizes (grid cells, modes, orbits, ranks):
/// the value under `key` truncated toward zero, or `fallback` when absent.
/// Refuses, with a std::invalid_argument that names `key`, every value whose
/// std::size_t conversion would be undefined (NaN, +-inf, negative, at or
/// above 2^64) and every value below `min`.
std::size_t count_or(const std::map<std::string, double>& m, const std::string& key,
                     std::size_t fallback, std::size_t min = 0);

/// Absolute-temperature form for boundary, sink and initial temperatures:
/// the value under `key` in kelvin, or `fallback` when absent. Refuses, with
/// a std::invalid_argument that names `key`, NaN, +-inf and every value at
/// or below 0 K.
double kelvin_or(const std::map<std::string, double>& m, const std::string& key,
                 double fallback);

}  // namespace aeropack::core
