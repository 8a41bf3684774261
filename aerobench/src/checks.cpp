#include "checks.hpp"

#include <cmath>
#include <cstring>

#include "rom/rom.hpp"

namespace aerobench {

namespace {

double get_or(const std::map<std::string, double>& m, const std::string& key, double fallback) {
  const auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

}  // namespace

std::uint64_t values_hash(const std::map<std::string, double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, value] : values) {
    if (name == "structure_assemblies") continue;
    mix(name.data(), name.size() + 1);  // include the terminator as a separator
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    mix(&bits, sizeof bits);
  }
  return h;
}

std::string sanity_check(const aeropack::core::ScenarioSpec& spec,
                         const std::map<std::string, double>& values) {
  if (values.empty()) return "no outputs";
  for (const auto& [name, value] : values)
    if (!std::isfinite(value)) return "non-finite output " + name;

  const std::string& g = spec.graph;
  if (g == "fv_slab_steady") {
    const double power = get_or(spec.loads, "power_w", 5.0);
    if (!(std::fabs(get_or(values, "energy_residual", INFINITY)) <= 1e-6 * power))
      return "energy_residual above 1e-6 * power_w";
  } else if (starts_with(g, "rom_")) {
    const double bound = std::sqrt(aeropack::rom::RomOptions{}.energy_tolerance);
    if (!(get_or(values, "error_estimate", INFINITY) <= bound))
      return "error_estimate above sqrt(energy_tolerance)";
  } else if (g == "modal_plate") {
    const double f1 = get_or(values, "f1_hz", 0.0);
    const double f2 = get_or(values, "f2_hz", 0.0);
    if (!(f1 > 0.0 && f2 >= f1)) return "modal frequencies not positive and ascending";
  } else if (starts_with(g, "mission_")) {
    if (!(get_or(values, "steps", 0.0) >= 1.0)) return "mission accepted no step";
    if (values.count("t_peak_max") && !(values.at("t_peak_max") >= values.at("t_final_max")))
      return "mission peak below its final maximum";
  }
  return {};
}

}  // namespace aerobench
