// Householder + implicit QL eigen_symmetric on the inputs that stress it:
// 1x1, the zero matrix, repeated diagonal entries, an equal-eigenvalue
// pair, the (2, -1) Toeplitz tridiagonal against its closed-form spectrum
// and a spectrum graded from 1e-12 to 1. Every case checks ascending order,
// the residual ||A V - V L|| and the orthogonality ||V^T V - I|| against
// 10 n eps ||A|| (Frobenius; the orthogonality bound uses max(||A||, 1)),
// and that a repeated call returns the same bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "numeric/eigen.hpp"

namespace an = aeropack::numeric;

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Q diag(lambda) Q^T with Q the Householder reflector I - 2 v v^T / v^T v
/// of a fixed dense v: a full symmetric matrix with a known spectrum.
an::Matrix with_spectrum(const an::Vector& lambda) {
  const std::size_t n = lambda.size();
  an::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1.0 + 0.37 * static_cast<double>(i % 5) - 0.1 * i;
  double vv = 0.0;
  for (const double x : v) vv += x * x;
  an::Matrix q = an::Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) q(i, j) -= 2.0 * v[i] * v[j] / vv;
  an::Matrix a = q * an::Matrix::diagonal(lambda) * q.transposed();
  a.symmetrize();
  return a;
}

/// Runs every invariant on `a` and returns the decomposition.
an::EigenResult check_decomposition(const an::Matrix& a) {
  const std::size_t n = a.rows();
  const an::EigenResult res = an::eigen_symmetric(a);
  EXPECT_EQ(res.eigenvalues.size(), n);
  EXPECT_EQ(res.eigenvectors.rows(), n);
  EXPECT_EQ(res.eigenvectors.cols(), n);
  EXPECT_TRUE(std::is_sorted(res.eigenvalues.begin(), res.eigenvalues.end()));

  const double bound = 10.0 * static_cast<double>(n) * kEps;
  const an::Matrix& v = res.eigenvectors;
  const an::Matrix residual = a * v - v * an::Matrix::diagonal(res.eigenvalues);
  EXPECT_LE(residual.norm(), bound * a.norm()) << "n = " << n;
  const an::Matrix gram = v.transposed() * v - an::Matrix::identity(n);
  EXPECT_LE(gram.norm(), bound * std::max(a.norm(), 1.0)) << "n = " << n;

  const an::EigenResult again = an::eigen_symmetric(a);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again.eigenvalues[j]),
              std::bit_cast<std::uint64_t>(res.eigenvalues[j]));
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(again.eigenvectors(i, j)),
                std::bit_cast<std::uint64_t>(v(i, j)));
  }
  return res;
}

}  // namespace

TEST(EigenQl, OneByOne) {
  const an::EigenResult res = check_decomposition(an::Matrix{{-3.5}});
  EXPECT_EQ(res.eigenvalues[0], -3.5);
  EXPECT_EQ(std::fabs(res.eigenvectors(0, 0)), 1.0);
}

TEST(EigenQl, ZeroMatrix) {
  const an::EigenResult res = check_decomposition(an::Matrix(6, 6));
  for (const double lam : res.eigenvalues) EXPECT_EQ(lam, 0.0);
}

TEST(EigenQl, DiagonalWithRepeatedEntries) {
  const an::EigenResult res =
      check_decomposition(an::Matrix::diagonal({2.0, -1.0, 2.0, 5.0, -1.0, 2.0}));
  const an::Vector want{-1.0, -1.0, 2.0, 2.0, 2.0, 5.0};
  for (std::size_t j = 0; j < want.size(); ++j) EXPECT_EQ(res.eigenvalues[j], want[j]);
}

TEST(EigenQl, EqualEigenvaluePair) {
  // A 2x2 block of equal eigenvalues, hidden in a dense 4x4 by a reflector.
  const an::Matrix a = with_spectrum({1.0, 3.0, 3.0, 5.0});
  const an::EigenResult res = check_decomposition(a);
  const an::Vector want{1.0, 3.0, 3.0, 5.0};
  for (std::size_t j = 0; j < want.size(); ++j)
    EXPECT_NEAR(res.eigenvalues[j], want[j], 40.0 * kEps * a.norm()) << j;
}

TEST(EigenQl, ToeplitzTridiagonalMatchesClosedForm) {
  const std::size_t n = 84;
  an::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    if (i + 1 < n) a(i, i + 1) = a(i + 1, i) = -1.0;
  }
  const an::EigenResult res = check_decomposition(a);
  for (std::size_t k = 1; k <= n; ++k) {
    const double exact =
        2.0 - 2.0 * std::cos(static_cast<double>(k) * std::numbers::pi / static_cast<double>(n + 1));
    EXPECT_NEAR(res.eigenvalues[k - 1], exact, 10.0 * n * kEps * a.norm()) << "k = " << k;
  }
}

TEST(EigenQl, GradedSpectrumFromOneToOneTrillionth) {
  an::Vector lambda;
  for (int p = -12; p <= 0; ++p) lambda.push_back(std::pow(10.0, p));
  const an::Matrix a = with_spectrum(lambda);
  const an::EigenResult res = check_decomposition(a);
  // QL is accurate to a few ulps of the largest eigenvalue, not of each.
  for (std::size_t j = 0; j < lambda.size(); ++j)
    EXPECT_NEAR(res.eigenvalues[j], lambda[j], 10.0 * lambda.size() * kEps * a.norm()) << j;
}
