// ARINC rack model: flow split, exhaust, generation-growth failure mode.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/rack.hpp"
#include "core/units.hpp"

namespace ac = aeropack::core;

namespace {
ac::RackDesign uniform_rack(int slots, double watts_each) {
  ac::RackDesign r;
  for (int i = 0; i < slots; ++i) {
    ac::RackSlot s;
    s.name = "slot" + std::to_string(i);
    s.power = watts_each;
    // Surface flux after in-board spreading: both card faces + 1.3x hot-spot
    // concentration.
    s.peak_flux = 1.3 * watts_each / (2.0 * s.channel.card_width * s.channel.card_length);
    r.slots.push_back(s);
  }
  r.inlet_temperature = ac::celsius_to_kelvin(40.0);
  return r;
}
}  // namespace

TEST(Rack, UniformRackUniformResults) {
  const auto rack = uniform_rack(6, 20.0);
  const auto res = ac::solve_rack(rack, ac::celsius_to_kelvin(105.0));
  ASSERT_EQ(res.slots.size(), 6u);
  for (const auto& s : res.slots) {
    EXPECT_NEAR(s.exhaust_temperature, res.slots[0].exhaust_temperature, 1e-9);
    EXPECT_TRUE(s.feasible);
  }
  // Mixed exhaust equals the common exhaust for identical slots.
  EXPECT_NEAR(res.mixed_exhaust, res.slots[0].exhaust_temperature, 1e-9);
  EXPECT_TRUE(res.all_feasible);
}

TEST(Rack, ExhaustMatchesArincRise) {
  const auto rack = uniform_rack(4, 25.0);
  const auto res = ac::solve_rack(rack, ac::celsius_to_kelvin(120.0));
  // Blower sized for the rack total: the bulk rise is the standard ~16 K.
  EXPECT_NEAR(res.mixed_exhaust - rack.inlet_temperature, 16.3, 1.0);
}

TEST(Rack, HotSlotInColdRack) {
  // One slot grows to the next module generation while the blower stays
  // sized for the original rack: that slot overheats, the rest stay fine.
  auto rack = uniform_rack(6, 10.0);
  rack.design_power = 60.0;       // blower sized for 6 x 10 W
  rack.slots[2].power = 60.0;     // generation growth in one slot
  rack.slots[2].peak_flux = 5e3;
  const auto res = ac::solve_rack(rack, ac::celsius_to_kelvin(105.0));
  EXPECT_FALSE(res.slots[2].feasible);
  for (std::size_t i = 0; i < res.slots.size(); ++i) {
    if (i != 2) {
      EXPECT_TRUE(res.slots[i].feasible) << i;
    }
  }
  EXPECT_FALSE(res.all_feasible);
  EXPECT_GT(res.slots[2].exhaust_temperature, res.slots[0].exhaust_temperature + 20.0);
}

TEST(Rack, WiderChannelGetsMoreFlow) {
  auto rack = uniform_rack(2, 20.0);
  rack.slots[1].channel.gap = 10e-3;  // double gap
  const auto res = ac::solve_rack(rack, ac::celsius_to_kelvin(120.0));
  // Same power, more flow: cooler exhaust in the wide slot.
  EXPECT_LT(res.slots[1].exhaust_temperature, res.slots[0].exhaust_temperature);
}

TEST(Rack, ValidationCatchesNonsense) {
  ac::RackDesign empty;
  EXPECT_THROW(ac::solve_rack(empty, 380.0), std::invalid_argument);
  auto rack = uniform_rack(2, 10.0);
  rack.slots[0].power = -1.0;
  EXPECT_THROW(ac::solve_rack(rack, 380.0), std::invalid_argument);
}
