// Concurrent sparse modal solves on isolated ExecutionContexts (TSan-gated
// under the fem label): two shift-invert solves driven from two distinct
// std::threads, each on its own context, must be data-race free and
// bit-identical to the serial runs.
#include <gtest/gtest.h>

#include <thread>

#include "exec/context.hpp"
#include "fem/modal.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"

namespace af = aeropack::fem;
namespace am = aeropack::materials;
namespace an = aeropack::numeric;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

/// Fig. 2 power-supply board with the heavy component at `mass_x`.
af::PlateModel board(double mass_x) {
  af::PlateModel p(0.16, 0.10, 1.6e-3, am::fr4(), 8, 5);
  p.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  p.add_smeared_mass(2.5);
  p.add_point_mass(mass_x, 0.05, 0.18);
  p.add_doubler(0.03, 0.13, 0.02, 0.08, 1.8);
  return p;
}

af::ModalOptions sparse_opts() {
  af::ModalOptions opts;
  opts.n_modes = 6;
  return opts;
}

void expect_modes_bit_identical(const af::ReducedModes& got, const af::ReducedModes& want,
                                const char* label) {
  ASSERT_EQ(got.eigenvalues.size(), want.eigenvalues.size()) << label;
  for (std::size_t j = 0; j < got.eigenvalues.size(); ++j) {
    ASSERT_EQ(got.eigenvalues[j], want.eigenvalues[j]) << label << ", mode " << j;
    ASSERT_EQ(got.frequencies_hz[j], want.frequencies_hz[j]) << label << ", mode " << j;
  }
  ASSERT_EQ(got.shapes.rows(), want.shapes.rows()) << label;
  for (std::size_t j = 0; j < got.shapes.cols(); ++j)
    for (std::size_t i = 0; i < got.shapes.rows(); ++i)
      ASSERT_EQ(got.shapes(i, j), want.shapes(i, j)) << label << " shape (" << i << "," << j << ")";
}

}  // namespace

TEST(ConcurrentModal, TwoSparseSolvesMatchSerialBitForBit) {
  an::CsrMatrix ka, ma, kb, mb;
  board(0.05).reduced_sparse(ka, ma);
  board(0.11).reduced_sparse(kb, mb);

  ExecutionConfig cfg;
  cfg.threads = 2;
  af::ReducedModes ref_a, ref_b;
  {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    ref_a = af::solve_reduced_modes(ka, ma, sparse_opts());
  }
  {
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    ref_b = af::solve_reduced_modes(kb, mb, sparse_opts());
  }

  for (int round = 0; round < 3; ++round) {
    af::ReducedModes got_a, got_b;
    std::thread ta([&] {
      ExecutionContext ctx(cfg);
      const ExecutionContext::Use use(ctx);
      got_a = af::solve_reduced_modes(ka, ma, sparse_opts());
    });
    std::thread tb([&] {
      ExecutionContext ctx(cfg);
      const ExecutionContext::Use use(ctx);
      got_b = af::solve_reduced_modes(kb, mb, sparse_opts());
    });
    ta.join();
    tb.join();
    expect_modes_bit_identical(got_a, ref_a, "board A");
    expect_modes_bit_identical(got_b, ref_b, "board B");
  }
}

TEST(ConcurrentModal, ContextSolveMatchesUnboundProcessSolve) {
  // The ambient (unbound) path and a 1-thread context must produce the same
  // bits — the refactor's "default context preserves today's behavior"
  // contract, applied to the sparse modal stack.
  an::CsrMatrix k, m;
  board(0.08).reduced_sparse(k, m);
  const af::ReducedModes unbound = af::solve_reduced_modes(k, m, sparse_opts());
  ExecutionContext ctx;  // 1 thread, dormant telemetry
  const ExecutionContext::Use use(ctx);
  const af::ReducedModes bound = af::solve_reduced_modes(k, m, sparse_opts());
  expect_modes_bit_identical(bound, unbound, "1-thread context vs unbound");
}
