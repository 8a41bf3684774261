// ROM-vs-full-FV equivalence ladder on the canonical compact models: the
// energy-norm error must shrink monotonically with basis rank (Galerkin
// optimality over the nested POD basis), the full-rank reduction must agree
// with the reference solve to verification accuracy, and the early-rank
// error trajectory is golden-frozen so silent snapshot/projection changes
// fail loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "rom/canonical.hpp"
#include "verify/golden.hpp"
#include "verify/rom_check.hpp"

namespace ar = aeropack::rom;
namespace av = aeropack::verify;

namespace {

const char* golden_dir() { return AEROPACK_GOLDEN_DIR; }

ar::RomInputs board_inputs() {
  ar::RomInputs in;
  in.sink_temperatures = {313.15, 318.15, 303.15};
  in.map_powers = {12.0, 8.0};
  return in;
}

ar::RomInputs seb_inputs() {
  ar::RomInputs in;
  in.sink_temperatures = {308.15, 308.15, 298.15};
  in.map_powers = {45.0, 15.0};
  return in;
}

void expect_ladder_contract(const av::RomLadderResult& ladder) {
  ASSERT_FALSE(ladder.rungs.empty());
  EXPECT_TRUE(ladder.monotone) << "energy-norm error must not grow with rank";
  // Acceptance bar: relative error at the frozen (full usable) rank.
  EXPECT_LE(ladder.full_rank_field_error, 1e-3);
  EXPECT_LE(ladder.rungs.back().energy_error, 1e-3);
  // The reference solve itself is healthy.
  EXPECT_LT(std::abs(ladder.fv_energy_residual), 1e-5);
  // The a-priori estimate tracks the truncation: wherever the estimate is
  // zero (full basis) the true error must be at verification accuracy.
  for (const auto& rung : ladder.rungs) {
    EXPECT_GE(rung.energy_error, 0.0);
    if (rung.rank < ladder.rungs.size()) {
      EXPECT_GT(rung.estimate, 0.0) << "truncated rank " << rung.rank;
    }
  }
}

void freeze_early_rungs(const char* name, const av::RomLadderResult& ladder) {
  // Early-rank errors are O(1e-1..1e-4): numerically stable to freeze.
  // Near-round-off tail rungs are asserted by bound above, not frozen.
  av::GoldenRecorder rec(name, golden_dir(), "verify");
  const std::size_t n = std::min<std::size_t>(3, ladder.rungs.size());
  for (std::size_t i = 0; i < n; ++i) {
    rec.record("rank" + std::to_string(ladder.rungs[i].rank) + ".energy_error",
               ladder.rungs[i].energy_error);
    rec.record("rank" + std::to_string(ladder.rungs[i].rank) + ".port_temp_error",
               ladder.rungs[i].port_temp_error);
  }
  std::string joined;
  for (const auto& line : rec.finish(1e-5)) joined += "\n  " + line;
  EXPECT_TRUE(joined.empty()) << rec.path() << ":" << joined;
}

}  // namespace

TEST(RomEquivalence, Fig2BoardLadderMonotoneAndTight) {
  const ar::CanonicalCase c = ar::fig2_board();
  const av::RomLadderResult ladder =
      av::rom_equivalence_ladder(c.model, c.spec, board_inputs());
  expect_ladder_contract(ladder);
  freeze_early_rungs("rom_ladder_fig2", ladder);
}

TEST(RomEquivalence, SebBoxLadderMonotoneAndTight) {
  const ar::CanonicalCase c = ar::seb_box();
  const av::RomLadderResult ladder = av::rom_equivalence_ladder(c.model, c.spec, seb_inputs());
  expect_ladder_contract(ladder);
  freeze_early_rungs("rom_ladder_seb", ladder);
}

TEST(RomEquivalence, EnrichedBasisDoesNotDegrade) {
  // Transient enrichment adds snapshots; the steady equivalence must stay
  // within the same acceptance bar (more basis vectors, same target field).
  ar::RomOptions opts;
  opts.transient_samples_per_map = 2;
  opts.transient_time_scale = 10.0;
  const ar::CanonicalCase c = ar::fig2_board();
  const av::RomLadderResult ladder =
      av::rom_equivalence_ladder(c.model, c.spec, board_inputs(), opts);
  expect_ladder_contract(ladder);
}
