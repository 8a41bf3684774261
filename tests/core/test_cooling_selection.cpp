// Level-1 cooling technology selection (Fig. 5 trade).
#include <gtest/gtest.h>

#include "core/cooling_selection.hpp"
#include "core/units.hpp"

namespace ac = aeropack::core;

namespace {
ac::Equipment box_with_power(double watts, std::size_t n_modules = 1) {
  ac::Equipment eq;
  eq.name = "test box";
  for (std::size_t m = 0; m < n_modules; ++m) {
    ac::Module mod;
    mod.name = "M";
    mod.name += std::to_string(m);
    ac::Board b;
    b.name = "board";
    ac::Component c;
    c.reference = "LOAD";
    c.power = watts / static_cast<double>(n_modules);
    b.components.push_back(c);
    mod.boards.push_back(b);
    eq.modules.push_back(mod);
  }
  return eq;
}
}  // namespace

TEST(CoolingSelection, LowPowerPicksFreeConvection) {
  const auto eq = box_with_power(8.0);
  ac::Specification spec;
  spec.ambient_temperature = ac::celsius_to_kelvin(40.0);
  const auto sel = ac::select_cooling(eq, spec);
  EXPECT_TRUE(sel.any_feasible);
  EXPECT_EQ(sel.selected, ac::CoolingTechnology::FreeConvection);
}

TEST(CoolingSelection, MediumPowerEscalatesBeyondFreeConvection) {
  const auto eq = box_with_power(150.0, 3);
  ac::Specification spec;
  spec.ambient_temperature = ac::celsius_to_kelvin(40.0);
  const auto sel = ac::select_cooling(eq, spec);
  EXPECT_TRUE(sel.any_feasible);
  EXPECT_NE(sel.selected, ac::CoolingTechnology::FreeConvection);
}

TEST(CoolingSelection, NoForcedAirDisablesAirTechnologies) {
  // The IFE situation: "they are not connected to the aircraft cooling
  // system" — the selector must not offer ARINC air.
  const auto eq = box_with_power(60.0);
  ac::Specification spec;
  spec.forced_air_available = false;
  const auto sel = ac::select_cooling(eq, spec);
  for (const auto& a : sel.assessments) {
    if (a.technology == ac::CoolingTechnology::DirectAirFlow ||
        a.technology == ac::CoolingTechnology::AirFlowAround) {
      EXPECT_FALSE(a.available);
      EXPECT_FALSE(a.feasible);
    }
  }
  EXPECT_NE(sel.selected, ac::CoolingTechnology::DirectAirFlow);
}

TEST(CoolingSelection, CapabilitiesOrderedSensibly) {
  const auto eq = box_with_power(50.0, 2);
  ac::Specification spec;
  const double free_conv =
      ac::technology_capability(ac::CoolingTechnology::FreeConvection, eq, spec);
  const double liquid =
      ac::technology_capability(ac::CoolingTechnology::LiquidFlowThrough, eq, spec);
  const double two_phase =
      ac::technology_capability(ac::CoolingTechnology::TwoPhase, eq, spec);
  // Liquid cold plates top the ladder; passive free convection (helped by
  // radiation off the painted chassis) is comparable to a two-string
  // two-phase solution for a box this size, so only assert the top rank and
  // that everything is positive.
  EXPECT_GT(liquid, two_phase);
  EXPECT_GT(liquid, free_conv);
  EXPECT_GT(two_phase, 0.0);
  EXPECT_GT(free_conv, 0.0);
}

TEST(CoolingSelection, HotAmbientKillsBudget) {
  const auto eq = box_with_power(30.0);
  ac::Specification hot;
  hot.ambient_temperature = hot.local_ambient_limit;  // zero budget
  EXPECT_DOUBLE_EQ(
      ac::technology_capability(ac::CoolingTechnology::FreeConvection, eq, hot), 0.0);
}

TEST(CoolingSelection, AltitudeDeratesFreeConvection) {
  const auto eq = box_with_power(20.0);
  ac::Specification sl;
  sl.altitude = 0.0;
  ac::Specification high = sl;
  high.altitude = 12000.0;
  const double c_sl = ac::technology_capability(ac::CoolingTechnology::FreeConvection, eq, sl);
  const double c_hi =
      ac::technology_capability(ac::CoolingTechnology::FreeConvection, eq, high);
  // Radiation is altitude-independent, so the derating is partial.
  EXPECT_GT(c_sl, 1.1 * c_hi);
}

TEST(CoolingSelection, ComplexityRanksSimplestFirst) {
  const auto eq = box_with_power(10.0);
  const auto sel = ac::select_cooling(eq, ac::Specification{});
  // Assessments are sorted by complexity after selection.
  for (std::size_t i = 1; i < sel.assessments.size(); ++i)
    EXPECT_LE(sel.assessments[i - 1].complexity, sel.assessments[i].complexity);
  EXPECT_FALSE(to_string(sel.selected).empty());
}
