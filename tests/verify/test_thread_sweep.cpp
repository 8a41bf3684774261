// Thread-count determinism sweep: the MMS and cross-solver suites must
// produce bit-identical fields at 1, 2 and 8 threads, each run on an
// ExecutionContext of that many threads and compared with the serial run
// of a thread that has nothing bound. This locks in the
// deterministic-reduction contract of the parallel layer for every solver
// path the verification tier exercises.
#include <gtest/gtest.h>

#include <vector>

#include "exec/context.hpp"
#include "thermal/fv.hpp"
#include "verify/cross_check.hpp"
#include "verify/mms.hpp"
#include "verify/tolerance.hpp"

namespace at = aeropack::thermal;
namespace av = aeropack::verify;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

const std::vector<std::size_t> kThreadSweep{1, 2, 8};

template <typename Fn>
void expect_bit_identical_across_threads(const char* what, Fn&& field_at_current_threads) {
  const aeropack::numeric::Vector reference = field_at_current_threads();
  for (std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    const aeropack::numeric::Vector field = field_at_current_threads();
    EXPECT_TRUE(av::bitwise_equal(reference, field))
        << what << ": serial vs " << t << " threads diverge at index "
        << av::first_bitwise_difference(reference, field);
  }
}

}  // namespace

TEST(ThreadSweep, CrossSolverFieldsBitIdentical) {
  expect_bit_identical_across_threads("slab", [] { return av::cross_check_slab(64).fv_field; });
  expect_bit_identical_across_threads("fin", [] { return av::cross_check_fin(96).fv_field; });
  expect_bit_identical_across_threads("card", [] { return av::cross_check_card(12).fv_field; });
}

TEST(ThreadSweep, NonlinearPicardSolveBitIdentical) {
  const auto model = av::nonlinear_box_model(10);
  expect_bit_identical_across_threads("nonlinear box", [&] {
    const auto sol = model.solve_steady();
    EXPECT_TRUE(sol.converged);
    return sol.temperatures;
  });
}

TEST(ThreadSweep, TransientMarchBitIdentical) {
  const auto model = av::nonlinear_box_model(8);
  expect_bit_identical_across_threads("transient march", [&] {
    const auto out = model.solve_transient(120.0, 10.0, 293.15);
    return out.temperatures.back();
  });
}

TEST(ThreadSweep, MmsLadderErrorsExactlyReproducible) {
  // The MMS error norms are pure functions of the solved fields, so the
  // whole convergence report — every rung and the fitted order — must be
  // exactly equal (==, not near) at any thread count. The 32^3 rung is
  // above the multigrid crossover, so the ladder covers both CG paths.
  const auto mms = av::mms_graded_k(0.1, 0.12, 0.08, 10.0, 1.5, 300.0, 40.0);
  const std::vector<std::size_t> rungs{8, 16, 32};
  static_assert(32 * 32 * 32 >= at::kAmgMinCells);
  const auto reference =
      av::mms_steady_order(mms, rungs, at::FaceConductanceScheme::HarmonicMean);
  for (std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    const auto report =
        av::mms_steady_order(mms, rungs, at::FaceConductanceScheme::HarmonicMean);
    ASSERT_EQ(report.ladder.size(), reference.ladder.size());
    for (std::size_t i = 0; i < report.ladder.size(); ++i) {
      EXPECT_EQ(report.ladder[i].l2_error, reference.ladder[i].l2_error) << t;
      EXPECT_EQ(report.ladder[i].max_error, reference.ladder[i].max_error) << t;
    }
    EXPECT_EQ(report.observed_order, reference.observed_order) << t;
  }
}
