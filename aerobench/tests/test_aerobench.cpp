// The benchmark's own tests: seeded generators, the tail-percentile rule,
// self-time arithmetic and the CG work model's stencil count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "replay.hpp"
#include "stats.hpp"
#include "thermal/fv.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace ab = aerobench;

namespace {

std::vector<std::uint64_t> stream_hashes(const ab::Workload& w, std::uint64_t seed,
                                         std::size_t n) {
  std::vector<std::uint64_t> h;
  for (std::size_t i = 0; i < n; ++i) h.push_back(w.spec_at(seed, i).content_hash());
  return h;
}

ab::Span span(double start, double end, std::int64_t parent) {
  ab::Span s;
  s.name = "s";
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

}  // namespace

TEST(Workloads, SameSeedSameSpecs) {
  for (const ab::Workload& w : ab::workloads()) {
    const auto a = stream_hashes(w, 7, 400);
    EXPECT_EQ(a, stream_hashes(w, 7, 400)) << w.name;
    EXPECT_NE(a, stream_hashes(w, 8, 400)) << w.name;
    for (std::size_t i = 0; i < 400; ++i)
      EXPECT_EQ(w.spec_at(7, i), w.spec_at(7, i)) << w.name << " spec " << i;
  }
}

TEST(Workloads, StreamsCoverTheirGraphs) {
  for (const ab::Workload& w : ab::workloads()) {
    std::vector<bool> seen(w.graphs.size(), false);
    for (std::size_t i = 0; i < 400; ++i) {
      const std::string g = w.spec_at(3, i).graph;
      const auto it = std::find(w.graphs.begin(), w.graphs.end(), g);
      ASSERT_NE(it, w.graphs.end()) << w.name << " emitted undeclared graph " << g;
      seen[static_cast<std::size_t>(it - w.graphs.begin())] = true;
    }
    for (std::size_t g = 0; g < seen.size(); ++g) EXPECT_TRUE(seen[g]) << w.graphs[g];
  }
}

TEST(Workloads, DesignCampaignResubmitsUnderNewNames) {
  const ab::Workload& w = *ab::find_workload("design_campaign");
  std::size_t dups = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    const auto spec = w.spec_at(11, i);
    if (spec.name.rfind("design-dup", 0) != 0) continue;
    ++dups;
    bool found = false;
    for (std::size_t j = (i > 256 ? i - 256 : 0); j < i && !found; ++j)
      found = w.spec_at(11, j).content_hash() == spec.content_hash();
    EXPECT_TRUE(found) << "dup " << i << " has no earlier twin";
  }
  EXPECT_GE(dups, 165u);  // one per 12-spec block, but spec 0 cannot re-submit
  EXPECT_LE(dups, 167u);
}

TEST(Workloads, EveryBlockHoldsTheWholeMix) {
  const ab::Workload& mission = *ab::find_workload("mission_campaign");
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (std::size_t block = 0; block < 100; ++block) {
      std::vector<std::string> graphs;
      for (std::size_t i = 5 * block; i < 5 * block + 5; ++i)
        graphs.push_back(mission.spec_at(seed, i).graph);
      std::sort(graphs.begin(), graphs.end());
      std::vector<std::string> all = mission.graphs;
      std::sort(all.begin(), all.end());
      EXPECT_EQ(graphs, all) << "seed " << seed << " block " << block;
    }
  }
  const ab::Workload& design = *ab::find_workload("design_campaign");
  for (std::size_t block = 1; block < 100; ++block) {
    std::size_t dups = 0;
    for (std::size_t i = 12 * block; i < 12 * block + 12; ++i)
      dups += design.spec_at(4, i).name.rfind("design-dup", 0) == 0;
    EXPECT_EQ(dups, 1u) << "block " << block;
  }
  EXPECT_EQ(mission.round_specs % 5, 0u) << "a mission round is not whole blocks";
  EXPECT_EQ(design.round_specs % 12, 0u) << "a design round is not whole blocks";
}

TEST(Workloads, WarmupsNeverCollideWithTimedSpecs) {
  for (const ab::Workload& w : ab::workloads()) {
    for (const auto& warm : w.warmups()) {
      for (std::size_t i = 0; i < 400; ++i)
        EXPECT_NE(warm.content_hash(), w.spec_at(5, i).content_hash()) << w.name;
    }
  }
}

TEST(TailRule, PicksHighestRungWithTenBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  ab::TailPoint t = ab::tail_latency(v);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);  // rank 990, 10 beyond; p99.9 leaves 1
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 990.0);

  v.pop_back();  // 999 samples: p99 sits at rank 990 with 9 beyond
  t = ab::tail_latency(v);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 999u - 900u);
  EXPECT_DOUBLE_EQ(t.value, 900.0);
}

TEST(TailRule, SmallSamplesFallBackToTheMedian) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  const ab::TailPoint t = ab::tail_latency(v);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_EQ(t.samples, 5u);
  EXPECT_EQ(t.beyond, 2u);
}

TEST(TailRule, OrderDoesNotMatter) {
  std::vector<double> v;
  for (int i = 0; i < 80; ++i) v.push_back((i * 37) % 80);
  const ab::TailPoint t = ab::tail_latency(v);
  EXPECT_DOUBLE_EQ(t.percentile, 75.0);  // p90 would leave 8
  EXPECT_EQ(t.beyond, 20u);
  EXPECT_DOUBLE_EQ(t.value, 59.0);
  EXPECT_DOUBLE_EQ(ab::median(v), 39.0);
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  std::vector<ab::Span> s = {
      span(0.0, 10.0, -1),  // 0: root
      span(1.0, 4.0, 0),    // 1: child
      span(3.0, 5.0, 0),    // 2: child overlapping 1 -> union [1, 5)
      span(8.0, 12.0, 0),   // 3: child running past the root -> clipped to [8, 10)
      span(1.5, 2.0, 1),    // 4: grandchild: counts against 1, not against 0
      span(20.0, 21.0, -1), // 5: unrelated root
  };
  const std::vector<double> self = ab::self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  EXPECT_DOUBLE_EQ(self[5], 1.0);
}

TEST(SelfTime, MergedTimersNestUnderTheirAliasSpan) {
  ab::Recorder rec(true);
  std::int64_t scenario = -1, solve = -1;
  {
    ab::Recorder::Scope sc(rec, "scenario", 3);
    scenario = sc.id();
    ab::Recorder::Scope sv(rec, "thermal.solve_steady", 3);
    solve = sv.id();
  }
  // A registry that timed the solve (alias) with two nested timers, plus
  // an unrelated top-level timer.
  std::vector<aeropack::obs::TimerEntry> timers = {
      {"fv.solve_steady", 1, 1.0, 0},
      {"fv.solve_steady/numeric.cg", 2, 0.3, 1},
      {"fv.solve_steady/fv.update_boundary", 2, 0.1, 1},
      {"other", 1, 0.2, 0},
  };
  rec.merge_timers(scenario, timers, {{"fv.solve_steady", solve}});
  const auto& spans = rec.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[2].name, "numeric.cg");
  EXPECT_EQ(spans[2].parent, solve);
  EXPECT_EQ(spans[2].calls, 2u);
  EXPECT_TRUE(spans[2].aggregate);
  EXPECT_EQ(spans[2].request, 3);
  EXPECT_EQ(spans[3].name, "fv.update_boundary");
  EXPECT_EQ(spans[3].parent, solve);
  EXPECT_DOUBLE_EQ(spans[3].start, spans[2].end);  // laid out back to back
  EXPECT_EQ(spans[4].name, "other");
  EXPECT_EQ(spans[4].parent, scenario);
}

TEST(CgWorkModel, SevenPointCountMatchesTheAssembledOperator) {
  namespace at = aeropack::thermal;
  at::FvModel m(at::FvGrid::uniform(0.1, 0.05, 0.02, 7, 5, 3));
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  const auto assembly = m.build_assembly();
  EXPECT_EQ(ab::seven_point_nonzeros(7, 5, 3), assembly->matrix.nonzeros());
  const ab::CgWorkModel w = ab::cg_work_per_iteration(7, 5, 3);
  EXPECT_GT(w.bytes, 0.0);
  EXPECT_GT(w.flops / w.bytes, 0.0);
}
