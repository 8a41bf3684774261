// Sparse CSR structure and iterative Krylov solvers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "numeric/sparse.hpp"
#include "numeric/stats.hpp"

namespace an = aeropack::numeric;

namespace {
/// 1-D Poisson matrix (SPD tridiagonal) as CSR.
an::CsrMatrix poisson1d(std::size_t n) {
  an::SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return b.build();
}
}  // namespace

TEST(SparseBuilder, AccumulatesDuplicates) {
  an::SparseBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  const an::CsrMatrix m = b.build();
  EXPECT_EQ(m.nonzeros(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(SparseBuilder, DuplicatesSumInInsertionOrder) {
  // 1e16 + 1 rounds back to 1e16, so only insertion order gives exactly 0:
  // any other order of the three values sums to 1. Entries at other
  // coordinates, added before, between and after, must not disturb it.
  an::SparseBuilder b(3, 3);
  b.add(2, 1, 7.0);
  b.add(1, 2, 1e16);
  b.add(0, 0, 4.0);
  b.add(1, 2, 1.0);
  b.add(2, 1, -3.0);
  b.add(1, 0, 5.0);
  b.add(1, 2, -1e16);
  b.add(1, 1, 6.0);
  const an::CsrMatrix m = b.build();
  EXPECT_EQ(m.nonzeros(), 5u);
  EXPECT_EQ(m.at(1, 2), 0.0);
  EXPECT_EQ(m.at(2, 1), 4.0);
  EXPECT_EQ(m.row_ptr(), (std::vector<std::size_t>{0, 1, 4, 5}));
  EXPECT_EQ(m.col_idx(), (std::vector<std::size_t>{0, 0, 1, 2, 1}));
}

TEST(SparseBuilder, OutOfRangeThrows) {
  an::SparseBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  const an::CsrMatrix m = poisson1d(6);
  const an::Matrix d = m.to_dense();
  an::Vector x{1, 2, 3, 4, 5, 6};
  const an::Vector ys = m.multiply(x);
  const an::Vector yd = d * x;
  for (std::size_t i = 0; i < ys.size(); ++i) EXPECT_NEAR(ys[i], yd[i], 1e-14);
}

TEST(CsrMatrix, DiagonalExtraction) {
  const an::CsrMatrix m = poisson1d(4);
  const an::Vector d = m.diagonal();
  for (double v : d) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(CsrMatrix, SymmetryCheck) {
  EXPECT_DOUBLE_EQ(poisson1d(5).asymmetry(), 0.0);
  an::SparseBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  EXPECT_DOUBLE_EQ(b.build().asymmetry(), 1.0);
}

TEST(ConjugateGradient, SolvesPoisson) {
  const std::size_t n = 50;
  const an::CsrMatrix a = poisson1d(n);
  an::Vector rhs(n, 1.0);
  const auto res = an::conjugate_gradient(a, rhs);
  ASSERT_TRUE(res.converged);
  const an::Vector check = a.multiply(res.x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(check[i], 1.0, 1e-7);
}

TEST(ConjugateGradient, ZeroRhsGivesZeroSolution) {
  const auto res = an::conjugate_gradient(poisson1d(5), an::Vector(5, 0.0));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  for (double v : res.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ConjugateGradient, ShapeMismatchThrows) {
  EXPECT_THROW(an::conjugate_gradient(poisson1d(4), an::Vector(5, 1.0)), std::invalid_argument);
}

// Property: CG converges on random SPD systems of growing size within n
// iterations (exact arithmetic guarantee, with slack for rounding).
class CgProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgProperty, ConvergesWithinDimensionBound) {
  const std::size_t n = GetParam();
  an::Rng rng(99u + n);
  an::SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 4.0 + rng.uniform());
    if (i + 1 < n) {
      const double off = -rng.uniform();
      b.add(i, i + 1, off);
      b.add(i + 1, i, off);
    }
  }
  const an::CsrMatrix a = b.build();
  an::Vector rhs(n);
  for (double& v : rhs) v = rng.normal();
  const auto res = an::conjugate_gradient(a, rhs);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 2 * n + 10);
  EXPECT_LT(res.residual, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgProperty, ::testing::Values(4u, 16u, 64u, 256u));
