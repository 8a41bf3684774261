// Driven-transient ROM-vs-FV equivalence ladder: a DO-160 thermal-shock
// profile marched tight at full order and per-rank at reduced order on the
// same fixed time grid (both through core::march_fixed — the production
// engine/stepper pairing). The space-time trace error must decay
// monotonically with basis rank and the early-rank trajectory is
// golden-frozen so silent projection or stepper changes fail loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mission/profile.hpp"
#include "rom/canonical.hpp"
#include "verify/golden.hpp"
#include "verify/rom_check.hpp"

namespace am = aeropack::mission;
namespace ar = aeropack::rom;
namespace av = aeropack::verify;

namespace {

const char* golden_dir() { return AEROPACK_GOLDEN_DIR; }

ar::RomInputs seb_inputs() {
  ar::RomInputs in;
  in.sink_temperatures = {308.15, 308.15, 298.15};
  in.map_powers = {45.0, 15.0};
  return in;
}

/// Compressed DO-160 shock (40 K/min ramps, 2 min dwells): every phase kind
/// of the real qualification profile at test-suite cost.
am::Profile shock_profile() {
  return am::Profile::do160_thermal_shock(228.15, 328.15, 40.0, 120.0);
}

void expect_ladder_contract(const av::RomTransientLadderResult& ladder) {
  ASSERT_FALSE(ladder.rungs.empty());
  EXPECT_TRUE(ladder.monotone) << "trace error must not grow with rank";
  for (const auto& rung : ladder.rungs) {
    EXPECT_GE(rung.trace_error, 0.0);
    EXPECT_GE(rung.final_error, 0.0);
    if (rung.rank < ladder.rungs.size()) {
      EXPECT_GT(rung.estimate, 0.0) << "truncated rank " << rung.rank;
    }
  }
}

}  // namespace

TEST(RomTransientEquivalence, SebBoxDo160LadderMonotoneAndTight) {
  const ar::CanonicalCase c = ar::seb_box();
  av::RomTransientLadderOptions opts;
  opts.reference_steps = 120;
  // Transient snapshot enrichment: driven trajectories leave the span of
  // steady snapshots, so the driven ladder is where enrichment pays.
  opts.rom.transient_samples_per_map = 2;
  opts.rom.transient_time_scale = 10.0;
  const av::RomTransientLadderResult ladder =
      av::rom_transient_ladder(c.model, c.spec, seb_inputs(), shock_profile(), opts);
  expect_ladder_contract(ladder);
  ASSERT_EQ(ladder.steps, 120u);

  // Acceptance bar: the full usable basis resolves the driven trajectory to
  // sub-percent space-time error.
  EXPECT_LE(ladder.full_rank_trace_error, 1e-2);
  EXPECT_LE(ladder.rungs.back().final_error, 1e-2);

  // Early-rank errors are O(1e-1..1e-4): numerically stable to freeze.
  av::GoldenRecorder rec("rom_transient_ladder_seb", golden_dir(), "verify");
  const std::size_t n = std::min<std::size_t>(3, ladder.rungs.size());
  for (std::size_t i = 0; i < n; ++i) {
    rec.record("rank" + std::to_string(ladder.rungs[i].rank) + ".trace_error",
               ladder.rungs[i].trace_error);
    rec.record("rank" + std::to_string(ladder.rungs[i].rank) + ".final_error",
               ladder.rungs[i].final_error);
  }
  std::string joined;
  for (const auto& line : rec.finish(1e-5)) joined += "\n  " + line;
  EXPECT_TRUE(joined.empty()) << rec.path() << ":" << joined;
}

TEST(RomTransientEquivalence, LadderIsDeterministicAcrossThreadCounts) {
  const ar::CanonicalCase c = ar::seb_box();
  av::RomTransientLadderOptions opts;
  opts.reference_steps = 40;
  av::RomTransientLadderResult first =
      av::rom_transient_ladder(c.model, c.spec, seb_inputs(), shock_profile(), opts);
  const av::RomTransientLadderResult again =
      av::rom_transient_ladder(c.model, c.spec, seb_inputs(), shock_profile(), opts);
  ASSERT_EQ(first.rungs.size(), again.rungs.size());
  for (std::size_t i = 0; i < first.rungs.size(); ++i) {
    EXPECT_EQ(first.rungs[i].trace_error, again.rungs[i].trace_error) << "rank " << i + 1;
    EXPECT_EQ(first.rungs[i].final_error, again.rungs[i].final_error) << "rank " << i + 1;
  }
}
