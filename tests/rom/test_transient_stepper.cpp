// RomTransientStepper contracts: collapsed fixed-dt marches reproduce
// RomModel::transient bitwise, driven marches actually follow the drive,
// the exact-dt factorization ring serves changing step sizes, and — the
// determinism sweep the stepper's header promises — driven adaptive-shaped
// marches are bit-identical at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/transient_engine.hpp"
#include "exec/context.hpp"
#include "mission/profile.hpp"
#include "mission/transient.hpp"
#include "rom/canonical.hpp"
#include "rom/rom.hpp"
#include "rom/transient.hpp"
#include "verify/tolerance.hpp"

namespace ac = aeropack::core;
namespace am = aeropack::mission;
namespace an = aeropack::numeric;
namespace ar = aeropack::rom;
namespace av = aeropack::verify;
using an::Vector;

namespace {

const std::vector<std::size_t> kThreadSweep{1, 2, 8};

ar::RomModel board_rom() {
  const ar::CanonicalCase c = ar::fig2_board();
  ar::RomOptions opts;
  opts.transient_samples_per_map = 2;
  opts.transient_time_scale = 10.0;
  return ar::build_rom(c.model, c.spec, opts);
}

ar::RomInputs board_inputs() {
  ar::RomInputs in;
  in.sink_temperatures = {313.15, 318.15, 303.15};
  in.map_powers = {12.0, 8.0};
  return in;
}

am::Profile shock_profile() {
  return am::Profile::do160_thermal_shock(263.15, 333.15, 40.0, 60.0);
}

/// March the driven stepper through the call pattern the adaptive TR-BDF2
/// controller produces (one rate and two implicit stages of one size per
/// attempt, the size varying between attempts) and return the final
/// reduced state.
Vector adaptive_shaped_march(const ar::RomModel& rom, const am::Profile& profile) {
  ar::RomTransientStepper stepper(rom, board_inputs(),
                                  am::drive_for_rom(profile, board_inputs()));
  Vector y = stepper.initial_state(293.15);
  Vector r;
  double t = 0.0;
  double h = 6.0;
  for (int attempt = 0; attempt < 40; ++attempt) {
    const double d = 0.29 * h;
    stepper.rate(y, t, r);
    for (std::size_t k = 0; k < y.size(); ++k) y[k] += d * r[k];
    stepper.step(y, t + 0.59 * h, d);
    stepper.step(y, t + h, d);
    t += h;
    h = (attempt % 3 == 0) ? h * 1.5 : h * 0.7;
  }
  return y;
}

}  // namespace

TEST(RomTransientStepper, FixedDtMarchMatchesModelTransientBitwise) {
  const ar::RomModel rom = board_rom();
  const ar::RomInputs inputs = board_inputs();
  const ar::RomTransientResult reference = rom.transient(inputs, 120.0, 7.5, 293.15);

  ar::RomTransientStepper stepper(rom, inputs);  // undriven: base inputs throughout
  Vector y = stepper.initial_state(293.15);
  std::vector<Vector> marched{y};
  ac::march_fixed(stepper, y, 120.0, 7.5,
                  [&](double, const Vector& state) { marched.push_back(state); });

  ASSERT_EQ(marched.size(), reference.reduced_states.size());
  for (std::size_t s = 0; s < marched.size(); ++s)
    EXPECT_TRUE(av::bitwise_equal(marched[s], reference.reduced_states[s]))
        << "reduced state diverges at step " << s;
}

TEST(RomTransientStepper, DriveIsResolvedAtStepEndTimes) {
  const ar::RomModel rom = board_rom();
  const am::Profile profile = shock_profile();
  const ar::RomInputs inputs = board_inputs();

  // Driven vs frozen-at-base marches must part ways once the ambient ramps.
  ar::RomTransientStepper driven(rom, inputs, am::drive_for_rom(profile, inputs));
  ar::RomTransientStepper frozen(rom, inputs);
  Vector yd = driven.initial_state(293.15);
  Vector yf = frozen.initial_state(293.15);
  const double t_end = profile.total_duration();
  ac::march_fixed(driven, yd, t_end, t_end / 40.0, [](double, const Vector&) {});
  ac::march_fixed(frozen, yf, t_end, t_end / 40.0, [](double, const Vector&) {});
  const Vector field_driven = rom.reconstruct(yd);
  const Vector field_frozen = rom.reconstruct(yf);
  double diff = 0.0;
  for (std::size_t c = 0; c < field_driven.size(); ++c)
    diff = std::max(diff, std::abs(field_driven[c] - field_frozen[c]));
  EXPECT_GT(diff, 1.0) << "drive had no effect on the marched field";
}

TEST(RomTransientStepper, FactorRingServesChangingStepSizes) {
  const ar::RomModel rom = board_rom();
  ar::RomTransientStepper stepper(rom, board_inputs());
  Vector y = stepper.initial_state(293.15);
  // Cycle through more distinct dts than the ring holds, twice, interleaved
  // — every solve must still be finite and advance the state.
  const std::vector<double> dts{1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};
  double t = 0.0;
  for (int cycle = 0; cycle < 2; ++cycle)
    for (const double dt : dts) {
      t += dt;
      stepper.step(y, t, dt);
      for (const double v : y) ASSERT_TRUE(std::isfinite(v));
    }
  // The marched state still reconstructs to a physical field.
  const Vector field = rom.reconstruct(y);
  for (const double v : field) EXPECT_GT(v, 200.0);
}

TEST(RomTransientStepper, DrivenMarchBitIdenticalAcrossThreadCounts) {
  // The reference runs serially, with nothing bound; each thread count is an
  // ExecutionContext of that many threads.
  const am::Profile profile = shock_profile();
  const ar::RomModel rom = board_rom();
  const Vector reference = adaptive_shaped_march(rom, profile);
  for (const std::size_t threads : kThreadSweep) {
    aeropack::ExecutionContext ctx(aeropack::ExecutionConfig{threads, false});
    const aeropack::ExecutionContext::Use bind(ctx);
    const Vector y = adaptive_shaped_march(rom, profile);
    EXPECT_TRUE(av::bitwise_equal(y, reference))
        << "driven march diverges at " << threads << " threads, index "
        << av::first_bitwise_difference(y, reference);
  }
}

TEST(RomTransientStepper, KeepaliveOverloadSharesTheModel) {
  auto shared = std::make_shared<const ar::RomModel>(board_rom());
  ar::RomTransientStepper stepper(shared, board_inputs());
  EXPECT_EQ(stepper.state_size(), shared->rank());
  Vector y = stepper.initial_state(293.15);
  stepper.step(y, 5.0, 5.0);
  EXPECT_EQ(y.size(), shared->rank());
}
