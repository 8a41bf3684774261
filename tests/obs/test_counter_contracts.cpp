// Deterministic-counter contracts: the canonical solves (linear slab FV,
// nonlinear-box Picard, Fig. 2 board sparse modal, and two multigrid FV
// steady solves above the AMG crossover) run on ExecutionContexts with
// telemetry armed, and their algorithmic counters — Picard passes, CG iterations,
// SpMV calls, factorizations, subspace sweeps — are frozen as exact golden
// baselines under tests/obs/golden/. The PR 1-3 determinism invariants make
// these counters bit-identical across thread counts, so the same snapshot is
// asserted at 1, 2 and 8 threads: an accidental algorithmic regression (an
// extra Picard pass, a fallback silently engaging, a lost warm start) fails
// here even on noisy CI runners where timings prove nothing.
//
// Scheduling telemetry (numeric.parallel_for.*, numeric.pool.*) is
// thread-dependent by design and excluded from the contract.
//
// Regenerate after an intentional algorithmic change:
//   AEROPACK_UPDATE_GOLDEN=1 ctest -L obs -R CounterContracts
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/context.hpp"
#include "fem/modal.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "verify/cross_check.hpp"
#include "verify/golden.hpp"
#include "verify/solver_cases.hpp"

namespace af = aeropack::fem;
namespace am = aeropack::materials;
namespace at = aeropack::thermal;
namespace av = aeropack::verify;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

const std::vector<std::size_t> kThreadSweep{1, 2, 8};

bool is_scheduling_counter(const std::string& name) {
  return name.rfind("numeric.parallel_for.", 0) == 0 || name.rfind("numeric.pool.", 0) == 0;
}

/// Run `solve` on a fresh `threads`-thread context with telemetry armed and
/// return the algorithmic counters of its registry. Zero values are dropped,
/// as the golden baselines were recorded: a counter regressing from k to 0
/// still fails — its key goes missing against the baseline.
template <typename Fn>
std::map<std::string, std::uint64_t> counters_of(std::size_t threads, Fn&& solve) {
  ExecutionContext ctx(ExecutionConfig{threads, true});
  {
    const ExecutionContext::Use bind(ctx);
    solve();
  }
  std::map<std::string, std::uint64_t> snap;
  for (const auto& [name, value] : ctx.metrics().counters())
    if (value != 0 && !is_scheduling_counter(name)) snap[name] = value;
  return snap;
}

/// Assert the counters are exactly equal at every sweep thread count and
/// return the 1-thread snapshot.
template <typename Fn>
std::map<std::string, std::uint64_t> thread_invariant_counters(const std::string& label,
                                                               Fn&& solve) {
  const auto reference = counters_of(kThreadSweep.front(), solve);
  EXPECT_FALSE(reference.empty());
  for (const std::size_t t : kThreadSweep) {
    const auto run = counters_of(t, solve);
    EXPECT_EQ(run, reference) << label << ": counters diverge at " << t << " threads";
  }
  return reference;
}

/// Check the thread-invariant counters against the golden baseline.
template <typename Fn>
void expect_counter_contract(const std::string& golden_name, Fn&& solve) {
  const auto reference = thread_invariant_counters(golden_name, solve);
  av::GoldenRecorder rec(golden_name, AEROPACK_OBS_GOLDEN_DIR, "obs");
  for (const auto& [name, value] : reference)
    rec.record(name, static_cast<double>(value));
  std::string joined;
  for (const auto& line : rec.finish(0.0)) joined += "\n  " + line;
  EXPECT_TRUE(joined.empty()) << rec.path() << ":" << joined;
}

/// Linear slab: fixed temperatures on both x faces, uniform source. One
/// Picard pass, one structure assembly, a fixed CG iteration count.
at::FvModel slab_model() {
  at::FvModel m(at::FvGrid::uniform(0.1, 0.02, 0.01, 16, 4, 4));
  m.set_material(am::aluminum_6061());
  m.add_power(m.all_cells(), 5.0);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(320.0));
  return m;
}

/// Fig. 2 power-supply board (same physics as the golden regression model),
/// forced down the sparse shift-invert modal path.
af::PlateModel ps_board() {
  af::PlateModel p(0.16, 0.10, 1.6e-3, am::fr4(), 8, 5);
  p.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  p.add_smeared_mass(2.5);
  p.add_point_mass(0.05, 0.05, 0.18);
  p.add_point_mass(0.11, 0.05, 0.09);
  p.add_doubler(0.03, 0.13, 0.02, 0.08, 1.8);
  return p;
}

}  // namespace

TEST(CounterContracts, SlabFvSteady) {
  const at::FvModel model = slab_model();
  expect_counter_contract("obs_slab_fv", [&model] {
    const auto sol = model.solve_steady();
    ASSERT_TRUE(sol.converged);
  });
}

TEST(CounterContracts, NonlinearBoxPicard) {
  const at::FvModel model = av::nonlinear_box_model(8);
  expect_counter_contract("obs_nonlinear_box", [&model] {
    const auto sol = model.solve_steady();
    ASSERT_TRUE(sol.converged);
    ASSERT_GT(sol.picard_iterations, 1u);  // the nonlinear loop must engage
  });
}

TEST(CounterContracts, Fig2BoardSparseModal) {
  const af::PlateModel board = ps_board();
  af::ModalOptions opts;
  opts.n_modes = 6;
  expect_counter_contract("obs_fig2_modal", [&board, &opts] {
    const auto modes = board.solve_modal(opts);
    ASSERT_EQ(modes.frequencies_hz.size(), 6u);
  });
}

TEST(CounterContracts, FvAmgSteady) {
  // Steady solves above thermal::kAmgMinCells run multigrid-preconditioned
  // CG: pin the outer iterations, the inner level cycles and the one
  // hierarchy setup per cold solve for an isotropic cube and for the
  // heat-pipe drain box.
  const std::vector<std::pair<std::string, at::FvModel>> models{
      {"slab_32", av::amg_slab_case(32)}, {"drain_box", av::amg_drain_box_case()}};
  av::GoldenRecorder rec("obs_fv_amg", AEROPACK_OBS_GOLDEN_DIR, "obs");
  for (const auto& [name, model] : models) {
    const auto counters = thread_invariant_counters(name, [&model] {
      const auto sol = model.solve_steady();
      ASSERT_TRUE(sol.converged);
    });
    for (const char* key : {"numeric.cg.iterations", "numeric.amg.cycles", "numeric.amg.setups"}) {
      ASSERT_EQ(counters.count(key), 1u) << name << ": no " << key;
      rec.record(name + "." + key, static_cast<double>(counters.at(key)));
    }
  }
  std::string joined;
  for (const auto& line : rec.finish(0.0)) joined += "\n  " + line;
  EXPECT_TRUE(joined.empty()) << rec.path() << ":" << joined;
}

TEST(CounterContracts, SlabTransientWarmStartsEveryStep) {
  // Not golden-frozen (the step count is pinned by the arguments), but the
  // warm-start depth must be visible in telemetry: a zero-power march from
  // the exact fixed point converges in zero CG iterations every step.
  at::FvModel m(at::FvGrid::uniform(0.05, 0.02, 0.01, 8, 4, 2));
  m.set_material(am::aluminum_6061());
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  ExecutionContext ctx(ExecutionConfig{1, true});
  const ExecutionContext::Use bind(ctx);
  const auto out = m.solve_transient(10.0, 1.0, 300.0);
  const auto counters = ctx.metrics().counters();
  EXPECT_EQ(counters.at("fv.transient_steps"), 10u);
  EXPECT_EQ(counters.at("fv.structure_assemblies"), 1u);
  EXPECT_EQ(counters.at("fv.boundary_updates"), 10u);
  EXPECT_EQ(counters.at("fv.warmstart_hits"), 10u);
  EXPECT_EQ(out.linear_iterations, 0u);
}
