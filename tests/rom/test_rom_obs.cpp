// Observability contract for the compact-model pipeline: the rom.* counters
// land in the current registry (per-context isolation included), the
// algorithmic ones agree exactly with RomBuildInfo, and the wall-clock
// snapshot-build counter — the one deliberately nondeterministic key — is
// present so report gating must exclude it by prefix.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "exec/context.hpp"
#include "rom/canonical.hpp"
#include "rom/rom.hpp"

namespace ar = aeropack::rom;

namespace {

std::uint64_t at(const std::map<std::string, std::uint64_t>& counters, const std::string& key) {
  const auto it = counters.find(key);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace

TEST(RomObs, BuildAndEvalCountersMatchBuildInfo) {
  const ar::CanonicalCase c = ar::fig2_board();
  aeropack::ExecutionContext ctx(aeropack::ExecutionConfig{1, true});
  ar::RomModel rom = [&] {
    aeropack::ExecutionContext::Use use(ctx);
    return ar::build_rom(c.model, c.spec);
  }();

  const auto counters = ctx.metrics().counters();
  EXPECT_EQ(at(counters, "rom.builds"), 1u);
  EXPECT_EQ(at(counters, "rom.snapshot_solves"), rom.build_info().snapshot_solves);
  EXPECT_EQ(at(counters, "rom.snapshot_cg_iterations"), rom.build_info().snapshot_cg_iterations);
  EXPECT_EQ(at(counters, "rom.basis_vectors"), rom.rank());
  EXPECT_EQ(ctx.metrics().gauges().at("rom.basis_rank"), static_cast<double>(rom.rank()));
  EXPECT_EQ(ctx.metrics().gauges().at("rom.snapshots"),
            static_cast<double>(rom.build_info().snapshot_count));
  // The wall-clock build counter exists (nondeterministic value — exactly
  // why tools/check_report.py excludes the rom.snapshot_build. prefix).
  EXPECT_NE(counters.find("rom.snapshot_build.elapsed_us"), counters.end());

  // Evaluations count in whatever registry is current at call time.
  ar::RomInputs in;
  in.sink_temperatures = {300.0, 300.0, 300.0};
  in.map_powers = {5.0, 5.0};
  {
    aeropack::ExecutionContext::Use use(ctx);
    (void)rom.steady(in);
    (void)rom.steady(in);
    (void)rom.transient(in, 100.0, 10.0, 293.15);
  }
  const auto after = ctx.metrics().counters();
  EXPECT_EQ(at(after, "rom.steady_evals"), 2u);
  EXPECT_EQ(at(after, "rom.transient_evals"), 1u);
  EXPECT_EQ(at(after, "rom.transient_steps"), 10u);
}

TEST(RomObs, ContextsIsolateRomCounters) {
  const ar::CanonicalCase c = ar::fig2_board();
  aeropack::ExecutionContext a(aeropack::ExecutionConfig{1, true});
  aeropack::ExecutionContext b(aeropack::ExecutionConfig{1, true});
  {
    aeropack::ExecutionContext::Use use(a);
    (void)ar::build_rom(c.model, c.spec);
  }
  EXPECT_EQ(at(a.metrics().counters(), "rom.builds"), 1u);
  EXPECT_EQ(at(b.metrics().counters(), "rom.builds"), 0u);
}
