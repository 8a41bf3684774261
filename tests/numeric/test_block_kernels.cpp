// Block kernels of the sparse subspace iteration: SkylineCholesky::
// solve_block and CsrMatrix::multiply_block must return, column by column,
// the exact bits of solve() and multiply() on that column alone, whatever
// the block width, the envelope shape or the thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "exec/context.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/grain.hpp"
#include "numeric/sparse.hpp"
#include "numeric/sparse_cholesky.hpp"
#include "obs/registry.hpp"

namespace af = aeropack::fem;
namespace an = aeropack::numeric;
namespace obs = aeropack::obs;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

/// The modal_plate scenario board: 84 free DOFs.
void board_pencil(an::CsrMatrix& k, an::CsrMatrix& m) {
  af::PlateModel p(0.16, 0.10, 1.6e-3, aeropack::materials::fr4(), 8, 5);
  p.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  p.add_smeared_mass(2.5);
  p.add_point_mass(0.05, 0.05, 0.18);
  p.add_doubler(0.03, 0.13, 0.02, 0.08, 1.8);
  p.reduced_sparse(k, m);
}

/// SPD matrix whose envelope has rows of width 1 after row 0: a chain
/// coupled only within blocks of three, so rows 3, 6, 9, ... start at
/// their own diagonal.
an::CsrMatrix block_chain(std::size_t n) {
  an::SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 4.0 + 0.1 * static_cast<double>(i));
    if (i % 3 != 0) {
      b.add(i, i - 1, -1.0);
      b.add(i - 1, i, -1.0);
    }
  }
  return b.build();
}

/// Row-major n x q block from a fixed-seed LCG, uniform in [-1, 1).
std::vector<double> random_block(std::size_t n, std::size_t q, std::uint64_t seed) {
  std::vector<double> x(n * q);
  for (double& v : x) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<double>(seed >> 11) / static_cast<double>(std::uint64_t{1} << 52) - 1.0;
  }
  return x;
}

an::Vector column(const std::vector<double>& block, std::size_t q, std::size_t c) {
  an::Vector col(block.size() / q);
  for (std::size_t i = 0; i < col.size(); ++i) col[i] = block[i * q + c];
  return col;
}

void expect_same_bits(const an::Vector& got, const an::Vector& want, const char* what,
                      std::size_t q, std::size_t c) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << what << ": q=" << q << " column " << c << " row " << i;
}

void expect_solve_block_matches_solve(const an::CsrMatrix& a, std::size_t q) {
  const an::SkylineCholesky chol(a);
  const std::vector<double> b = random_block(a.rows(), q, 17 + q);
  std::vector<double> x = b;
  chol.solve_block(x, q);
  for (std::size_t c = 0; c < q; ++c)
    expect_same_bits(column(x, q, c), chol.solve(column(b, q, c)), "solve_block", q, c);
}

bool has_inner_width_one_row(const an::CsrMatrix& a) {
  for (std::size_t i = 1; i < a.rows(); ++i)
    if (a.col_idx()[a.row_ptr()[i]] == i) return true;
  return false;
}

}  // namespace

TEST(SolveBlock, EqualsSolveBitwiseOnTheBoardStiffness) {
  an::CsrMatrix k, m;
  board_pencil(k, m);
  ASSERT_EQ(k.rows(), 84u);
  for (const std::size_t q : {1u, 3u, 14u}) expect_solve_block_matches_solve(k, q);
}

TEST(SolveBlock, EqualsSolveBitwiseWithWidthOneEnvelopeRows) {
  const an::CsrMatrix a = block_chain(30);
  ASSERT_TRUE(has_inner_width_one_row(a));
  for (const std::size_t q : {1u, 3u, 14u}) expect_solve_block_matches_solve(a, q);
}

TEST(SolveBlock, EqualsSolveBitwiseOnOneUnknown) {
  an::SparseBuilder b(1, 1);
  b.add(0, 0, 2.5);
  const an::CsrMatrix a = b.build();
  for (const std::size_t q : {1u, 3u, 14u}) expect_solve_block_matches_solve(a, q);
}

TEST(SolveBlock, RejectsMismatchedBlock) {
  const an::SkylineCholesky chol(block_chain(6));
  std::vector<double> x(6 * 3, 1.0);
  EXPECT_THROW(chol.solve_block(x, 2), std::invalid_argument);
  EXPECT_THROW(chol.solve_block(x, 0), std::invalid_argument);
}

TEST(MultiplyBlock, EqualsMultiplyBitwiseAndCountsOneSpmvPerColumn) {
  an::CsrMatrix k, m;
  board_pencil(k, m);
  ExecutionContext ctx(ExecutionConfig{1, true});
  const ExecutionContext::Use use(ctx);
  for (const std::size_t q : {1u, 3u, 14u}) {
    const std::vector<double> x = random_block(m.cols(), q, 5 + q);
    std::vector<double> y;
    const std::uint64_t calls0 = obs::current().counter("numeric.spmv.calls").value();
    m.multiply_block(x, y, q);
    EXPECT_EQ(obs::current().counter("numeric.spmv.calls").value() - calls0, q);
    for (std::size_t c = 0; c < q; ++c)
      expect_same_bits(column(y, q, c), m.multiply(column(x, q, c)), "multiply_block", q, c);
  }
}

TEST(MultiplyBlock, BitIdenticalAcrossThreadCountsUnderForcedFanOut) {
  an::CsrMatrix k, m;
  board_pencil(k, m);
  const std::size_t q = 14;
  const std::vector<double> x = random_block(k.cols(), q, 99);
  std::vector<double> want;
  {
    ExecutionContext ctx(ExecutionConfig{1, false});
    const ExecutionContext::Use use(ctx);
    k.multiply_block(x, want, q);
  }
  const an::grain::ScopedForceFanOut force;
  for (const std::size_t threads : {2u, 8u}) {
    ExecutionContext ctx(ExecutionConfig{threads, false});
    const ExecutionContext::Use use(ctx);
    std::vector<double> got;
    k.multiply_block(x, got, q);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
          << threads << " threads, entry " << i;
  }
}

TEST(MultiplyBlock, RejectsMismatchedBlock) {
  const an::CsrMatrix a = block_chain(6);
  std::vector<double> y;
  EXPECT_THROW(a.multiply_block(std::vector<double>(6 * 3, 1.0), y, 2), std::invalid_argument);
  EXPECT_THROW(a.multiply_block(std::vector<double>(6, 1.0), y, 0), std::invalid_argument);
}
