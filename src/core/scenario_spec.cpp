#include "core/scenario_spec.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "numeric/hashing.hpp"

namespace aeropack::core {

namespace {

constexpr std::string_view kMagic = "scenario/1";

void hash_map(numeric::StructuralHasher& h, const std::map<std::string, double>& m) {
  h.add(static_cast<std::uint64_t>(m.size()));
  for (const auto& [key, value] : m) {  // std::map: deterministic order
    h.add(std::string_view(key));
    h.add(value);
  }
}

// '%', '|' and '=' carry structure in the wire form; escape them (and
// control characters) as %XX so arbitrary names round-trip.
void append_escaped(std::string& out, std::string_view s) {
  for (unsigned char c : s) {
    if (c == '%' || c == '|' || c == '=' || c < 0x20) {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
}

std::string unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%') {
      if (i + 2 >= s.size())
        throw std::invalid_argument("ScenarioSpec::deserialize: truncated escape");
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi < 0 || lo < 0)
        throw std::invalid_argument("ScenarioSpec::deserialize: bad escape digit");
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double parse_double(const std::string& s) {
  if (s.empty()) throw std::invalid_argument("ScenarioSpec::deserialize: empty value");
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size())
    throw std::invalid_argument("ScenarioSpec::deserialize: unparsable value '" + s + "'");
  return v;
}

void append_map(std::string& out, char tag, const std::map<std::string, double>& m) {
  for (const auto& [key, value] : m) {
    out += '|';
    out += tag;
    out += ':';
    append_escaped(out, key);
    out += '=';
    out += format_double(value);
  }
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace

std::uint64_t ScenarioSpec::content_hash() const {
  numeric::StructuralHasher h;
  h.add(std::string_view("core.scenario_spec"));
  h.add(std::string_view(graph));
  hash_map(h, params);
  hash_map(h, loads);
  hash_map(h, boundaries);
  return h.value();
}

std::uint64_t ScenarioSpec::structural_hash() const {
  numeric::StructuralHasher h;
  h.add(std::string_view("core.scenario_spec.structure"));
  h.add(std::string_view(graph));
  hash_map(h, params);
  return h.value();
}

std::string ScenarioSpec::serialize() const {
  std::string out(kMagic);
  out += "|name=";
  append_escaped(out, name);
  out += "|graph=";
  append_escaped(out, graph);
  append_map(out, 'p', params);
  append_map(out, 'l', loads);
  append_map(out, 'b', boundaries);
  return out;
}

ScenarioSpec ScenarioSpec::deserialize(const std::string& text) {
  const auto fields = split(text, '|');
  if (fields.empty() || fields[0] != kMagic)
    throw std::invalid_argument("ScenarioSpec::deserialize: bad magic (want 'scenario/1')");
  ScenarioSpec spec;
  bool saw_name = false, saw_graph = false;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::string_view f = fields[i];
    const std::size_t eq = f.find('=');
    if (eq == std::string_view::npos)
      throw std::invalid_argument("ScenarioSpec::deserialize: field without '='");
    const std::string_view key = f.substr(0, eq);
    const std::string_view raw = f.substr(eq + 1);
    if (key == "name") {
      if (saw_name) throw std::invalid_argument("ScenarioSpec::deserialize: duplicate name");
      spec.name = unescape(raw);
      saw_name = true;
    } else if (key == "graph") {
      if (saw_graph) throw std::invalid_argument("ScenarioSpec::deserialize: duplicate graph");
      spec.graph = unescape(raw);
      saw_graph = true;
    } else if (key.size() >= 2 && key[1] == ':' &&
               (key[0] == 'p' || key[0] == 'l' || key[0] == 'b')) {
      auto& m = key[0] == 'p' ? spec.params : key[0] == 'l' ? spec.loads : spec.boundaries;
      const std::string mkey = unescape(key.substr(2));
      const double v = parse_double(unescape(raw));
      // strtod also accepts "nan", "inf" and overflowing literals (1e400).
      if (!std::isfinite(v))
        throw std::invalid_argument("ScenarioSpec::deserialize: value of '" + mkey +
                                    "' must be finite");
      if (!m.emplace(mkey, v).second)
        throw std::invalid_argument("ScenarioSpec::deserialize: duplicate key '" + mkey + "'");
    } else {
      throw std::invalid_argument("ScenarioSpec::deserialize: unknown field tag");
    }
  }
  if (!saw_name || !saw_graph)
    throw std::invalid_argument("ScenarioSpec::deserialize: missing name or graph");
  return spec;
}

double value_or(const std::map<std::string, double>& m, const std::string& key,
                double fallback) {
  const auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

std::size_t count_or(const std::map<std::string, double>& m, const std::string& key,
                     std::size_t fallback, std::size_t min) {
  const auto it = m.find(key);
  if (it == m.end()) return fallback;
  const double v = it->second;
  // The size_t maximum rounds up to 2^64 as a double, so every value that
  // passes is finite, >= min and truncates to a representable size_t; NaN
  // fails both comparisons.
  constexpr double kLimit = static_cast<double>(std::numeric_limits<std::size_t>::max());
  if (!(v >= static_cast<double>(min) && v < kLimit)) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", v);
    throw std::invalid_argument("scenario param '" + key + "' must be a count in [" +
                                std::to_string(min) + ", 2^64), got " + got);
  }
  return static_cast<std::size_t>(v);
}

double kelvin_or(const std::map<std::string, double>& m, const std::string& key,
                 double fallback) {
  const double v = value_or(m, key, fallback);
  if (!(v > 0.0 && std::isfinite(v))) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", v);
    throw std::invalid_argument("scenario temperature '" + key +
                                "' must be finite and > 0 K, got " + got);
  }
  return v;
}

}  // namespace aeropack::core
