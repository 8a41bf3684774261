// core::ScenarioSpec — schema contracts: lossless serialize round-trips
// (hexfloat doubles, escaped names), content-hash identity, the
// structural/content hash split the artifact cache keys on, and the
// absolute-temperature reader.
#include "core/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

namespace ac = aeropack::core;

namespace {

ac::ScenarioSpec sample_spec() {
  ac::ScenarioSpec spec;
  spec.name = "seb_p060";
  spec.graph = "seb_point";
  spec.params = {{"tilt_deg", 22.0}};
  spec.loads = {{"power_w", 60.0}};
  spec.boundaries = {{"t_ambient", 295.15}};
  return spec;
}

TEST(ScenarioSpec, SerializeRoundTripsLosslessly) {
  const ac::ScenarioSpec spec = sample_spec();
  const ac::ScenarioSpec back = ac::ScenarioSpec::deserialize(spec.serialize());
  EXPECT_EQ(spec, back);
  EXPECT_EQ(spec.content_hash(), back.content_hash());
  EXPECT_EQ(spec.structural_hash(), back.structural_hash());
}

TEST(ScenarioSpec, RoundTripPreservesExactDoubleBits) {
  ac::ScenarioSpec spec;
  spec.name = "bits";
  spec.graph = "g";
  // Values that decimal formatting would mangle: an irrational dyadic mess,
  // a denormal, a negative zero and the largest finite double.
  spec.params = {{"pi", 3.141592653589793},
                 {"denormal", 5e-324},
                 {"negzero", -0.0},
                 {"huge", std::numeric_limits<double>::max()}};
  const ac::ScenarioSpec back = ac::ScenarioSpec::deserialize(spec.serialize());
  for (const auto& [key, value] : spec.params) {
    const double b = back.params.at(key);
    EXPECT_EQ(std::signbit(value), std::signbit(b)) << key;
    EXPECT_EQ(value, b) << key;
  }
  EXPECT_EQ(spec.content_hash(), back.content_hash());
}

TEST(ScenarioSpec, EscapesStructuralCharactersInNames) {
  ac::ScenarioSpec spec;
  spec.name = "odd|name=with%chars";
  spec.graph = "g|=";
  spec.params = {{"k|e=y%", 1.0}};
  const ac::ScenarioSpec back = ac::ScenarioSpec::deserialize(spec.serialize());
  EXPECT_EQ(spec, back);
}

TEST(ScenarioSpec, NameIsExcludedFromContentHash) {
  ac::ScenarioSpec a = sample_spec();
  ac::ScenarioSpec b = sample_spec();
  b.name = "a_different_label";
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
}

TEST(ScenarioSpec, LoadsChangeContentButNotStructure) {
  ac::ScenarioSpec a = sample_spec();
  ac::ScenarioSpec b = sample_spec();
  b.loads["power_w"] = 120.0;
  b.boundaries["t_ambient"] = 300.0;
  EXPECT_NE(a.content_hash(), b.content_hash());
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
}

TEST(ScenarioSpec, ParamsAndGraphChangeBothHashes) {
  const ac::ScenarioSpec a = sample_spec();
  ac::ScenarioSpec b = sample_spec();
  b.params["tilt_deg"] = 0.0;
  EXPECT_NE(a.content_hash(), b.content_hash());
  EXPECT_NE(a.structural_hash(), b.structural_hash());
  ac::ScenarioSpec c = sample_spec();
  c.graph = "fv_slab_steady";
  EXPECT_NE(a.content_hash(), c.content_hash());
  EXPECT_NE(a.structural_hash(), c.structural_hash());
}

TEST(ScenarioSpec, HashDistinguishesWhichMapHoldsAKey) {
  // The same key/value pair in params vs loads must not collide: one keys
  // shared structure, the other does not.
  ac::ScenarioSpec a;
  a.graph = "g";
  a.params = {{"x", 1.0}};
  ac::ScenarioSpec b;
  b.graph = "g";
  b.loads = {{"x", 1.0}};
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(ScenarioSpec, DeserializeRejectsMalformedInput) {
  EXPECT_THROW(ac::ScenarioSpec::deserialize(""), std::invalid_argument);
  EXPECT_THROW(ac::ScenarioSpec::deserialize("scenario/2|name=a|graph=g"),
               std::invalid_argument);
  EXPECT_THROW(ac::ScenarioSpec::deserialize("scenario/1|name=a"), std::invalid_argument);
  EXPECT_THROW(ac::ScenarioSpec::deserialize("scenario/1|name=a|graph=g|p:x=notanumber"),
               std::invalid_argument);
  EXPECT_THROW(ac::ScenarioSpec::deserialize("scenario/1|name=a|graph=g|z:x=1"),
               std::invalid_argument);
  EXPECT_THROW(
      ac::ScenarioSpec::deserialize("scenario/1|name=a|graph=g|p:x=0x1p+0|p:x=0x1p+1"),
      std::invalid_argument);
  EXPECT_THROW(ac::ScenarioSpec::deserialize("scenario/1|name=a%2|graph=g"),
               std::invalid_argument);
}

TEST(ScenarioSpec, DeserializeRefusesNonFiniteValuesByKey) {
  // strtod accepts every one of these; 1e400 overflows to +inf.
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "infinity", "1e400", "-1e400"}) {
    const std::string text = std::string("scenario/1|name=a|graph=g|l:power_w=") + bad;
    try {
      (void)ac::ScenarioSpec::deserialize(text);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("power_w"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

TEST(ScenarioSpec, KelvinReaderRefusesNonPositiveAndNonFiniteByKey) {
  const std::map<std::string, double> ok{{"t_sink", 250.0}};
  EXPECT_EQ(ac::kelvin_or(ok, "t_sink", 300.0), 250.0);
  EXPECT_EQ(ac::kelvin_or(ok, "t_other", 300.0), 300.0);
  EXPECT_EQ(ac::kelvin_or({{"t", 1e-300}}, "t", 300.0), 1e-300);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 0.0, -0.0, -5.0}) {
    try {
      (void)ac::kelvin_or({{"t_cold", bad}}, "t_cold", 300.0);
      ADD_FAILURE() << bad << " K was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'t_cold'"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

TEST(ScenarioSpec, FiniteHexfloatExtremesStillRoundTrip) {
  ac::ScenarioSpec spec;
  spec.name = "extremes";
  spec.graph = "g";
  spec.boundaries = {{"max", std::numeric_limits<double>::max()},
                     {"lowest", std::numeric_limits<double>::lowest()},
                     {"min_normal", std::numeric_limits<double>::min()},
                     {"denormal_min", std::numeric_limits<double>::denorm_min()}};
  const ac::ScenarioSpec back = ac::ScenarioSpec::deserialize(spec.serialize());
  EXPECT_EQ(spec, back);
  EXPECT_EQ(spec.content_hash(), back.content_hash());
}

}  // namespace
