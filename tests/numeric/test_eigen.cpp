// Symmetric (Householder + QL), generalized, and sparse shift-invert
// eigensolvers.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "exec/context.hpp"
#include "numeric/eigen.hpp"
#include "numeric/sparse.hpp"
#include "numeric/stats.hpp"
#include "obs/registry.hpp"

namespace an = aeropack::numeric;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

/// Fixed-fixed spring-mass chain: K tridiagonal, M diagonal with a gentle
/// gradient — a banded SPD pencil with a known-good dense reference.
void chain_pencil(std::size_t n, an::CsrMatrix& k, an::CsrMatrix& m) {
  an::SparseBuilder kb(n, n), mb(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    kb.add(i, i, 2000.0);
    if (i + 1 < n) {
      kb.add(i, i + 1, -1000.0);
      kb.add(i + 1, i, -1000.0);
    }
    mb.add(i, i, 1.0 + 0.01 * static_cast<double>(i));
  }
  k = kb.build();
  m = mb.build();
}

}  // namespace

TEST(EigenSymmetric, DiagonalMatrixReturnsSortedDiagonal) {
  const auto res = an::eigen_symmetric(an::Matrix::diagonal({3.0, 1.0, 2.0}));
  EXPECT_NEAR(res.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(res.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(res.eigenvalues[2], 3.0, 1e-12);
}

TEST(EigenSymmetric, TwoByTwoClosedForm) {
  an::Matrix a{{2, 1}, {1, 2}};
  const auto res = an::eigen_symmetric(a);
  EXPECT_NEAR(res.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(res.eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenSymmetric, RejectsAsymmetric) {
  an::Matrix a{{1, 2}, {0, 1}};
  EXPECT_THROW(an::eigen_symmetric(a), std::invalid_argument);
}

TEST(EigenSymmetric, EigenvectorsOrthonormalAndSatisfyDefinition) {
  an::Rng rng(7);
  const std::size_t n = 8;
  an::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  const auto res = an::eigen_symmetric(a);
  // V^T V = I
  const an::Matrix vtv = res.eigenvectors.transposed() * res.eigenvectors;
  EXPECT_LT((vtv - an::Matrix::identity(n)).norm(), 1e-8);
  // A v = lambda v for each pair
  for (std::size_t j = 0; j < n; ++j) {
    an::Vector v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = res.eigenvectors(i, j);
    const an::Vector av = a * v;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av[i], res.eigenvalues[j] * v[i], 1e-8);
  }
}

TEST(EigenGeneralized, SdofPairRecoversOmegaSquared) {
  // k = 100 N/m, m = 4 kg -> lambda = 25, f = 5/(2 pi) Hz.
  an::Matrix k{{100.0}};
  an::Matrix m{{4.0}};
  const auto res = an::eigen_generalized(k, m);
  EXPECT_NEAR(res.eigenvalues[0], 25.0, 1e-10);
  const an::Vector f = an::natural_frequencies_hz(res);
  EXPECT_NEAR(f[0], 5.0 / (2.0 * std::numbers::pi), 1e-10);
}

TEST(EigenGeneralized, TwoMassChainMatchesClosedForm) {
  // Two equal masses m, springs k-k (fixed-free chain):
  // lambda = (k/m) (3 -+ sqrt(5))/2
  const double k = 200.0, m = 2.0;
  an::Matrix km{{2.0 * k, -k}, {-k, k}};
  an::Matrix mm{{m, 0.0}, {0.0, m}};
  const auto res = an::eigen_generalized(km, mm);
  const double l1 = k / m * (3.0 - std::sqrt(5.0)) / 2.0;
  const double l2 = k / m * (3.0 + std::sqrt(5.0)) / 2.0;
  EXPECT_NEAR(res.eigenvalues[0], l1, 1e-8 * l2);
  EXPECT_NEAR(res.eigenvalues[1], l2, 1e-8 * l2);
}

TEST(EigenGeneralized, EigenvectorsMassOrthonormal) {
  an::Rng rng(21);
  const std::size_t n = 6;
  an::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  an::Matrix k = b.transposed() * b;
  for (std::size_t i = 0; i < n; ++i) k(i, i) += 1.0;
  an::Matrix m = an::Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0 + rng.uniform();
  const auto res = an::eigen_generalized(k, m);
  const an::Matrix xtmx = res.eigenvectors.transposed() * m * res.eigenvectors;
  EXPECT_LT((xtmx - an::Matrix::identity(n)).norm(), 1e-7);
  // All eigenvalues positive for SPD K.
  for (double lam : res.eigenvalues) EXPECT_GT(lam, 0.0);
}

TEST(EigenGeneralized, ShapeMismatchThrows) {
  EXPECT_THROW(an::eigen_generalized(an::Matrix(2, 2), an::Matrix(3, 3)),
               std::invalid_argument);
}

TEST(EigenGeneralized, IndefiniteMassThrowsDomainError) {
  an::Matrix k{{2.0, 0.0}, {0.0, 2.0}};
  an::Matrix m{{1.0, 0.0}, {0.0, -1.0}};
  EXPECT_THROW(an::eigen_generalized(k, m), std::domain_error);
}

TEST(NaturalFrequencies, ClampsNegativeNoise) {
  an::EigenResult r;
  r.eigenvalues = {-1e-9, 4.0 * std::numbers::pi * std::numbers::pi};
  r.eigenvectors = an::Matrix::identity(2);
  const an::Vector f = an::natural_frequencies_hz(r);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_NEAR(f[1], 1.0, 1e-12);
}

TEST(NaturalFrequencies, GenuinelyNegativeEigenvalueThrows) {
  // -1 is far outside rigid-body noise relative to the spectrum: report it.
  EXPECT_THROW(an::natural_frequencies_hz(an::Vector{-1.0, 40.0}), std::domain_error);
  // But noise-level negatives still clamp via the vector overload.
  const an::Vector f = an::natural_frequencies_hz(an::Vector{-1e-12, 40.0});
  EXPECT_DOUBLE_EQ(f[0], 0.0);
}

TEST(EigenGeneralizedSparse, MatchesDenseOnBandedPencil) {
  const std::size_t n = 60, nm = 6;
  an::CsrMatrix k, m;
  chain_pencil(n, k, m);
  const auto dense = an::eigen_generalized(k.to_dense(), m.to_dense());
  const auto sparse = an::eigen_generalized_sparse(k, m, nm);
  ASSERT_EQ(sparse.eigenvalues.size(), nm);
  for (std::size_t j = 0; j < nm; ++j)
    EXPECT_NEAR(sparse.eigenvalues[j], dense.eigenvalues[j],
                1e-9 * dense.eigenvalues[j]);
  // Shapes match the dense ones up to sign: |phi_s . M phi_d| = 1.
  for (std::size_t j = 0; j < nm; ++j) {
    an::Vector pd(n), ps(n);
    for (std::size_t i = 0; i < n; ++i) {
      pd[i] = dense.eigenvectors(i, j);
      ps[i] = sparse.eigenvectors(i, j);
    }
    const an::Vector mpd = m.multiply(pd);
    double overlap = 0.0;
    for (std::size_t i = 0; i < n; ++i) overlap += ps[i] * mpd[i];
    EXPECT_NEAR(std::fabs(overlap), 1.0, 1e-7);
  }
}

TEST(EigenGeneralizedSparse, ResidualAndMassOrthonormality) {
  const std::size_t n = 80, nm = 5;
  an::CsrMatrix k, m;
  chain_pencil(n, k, m);
  const auto res = an::eigen_generalized_sparse(k, m, nm);
  for (std::size_t j = 0; j < nm; ++j) {
    an::Vector phi(n);
    for (std::size_t i = 0; i < n; ++i) phi[i] = res.eigenvectors(i, j);
    const an::Vector kp = k.multiply(phi);
    const an::Vector mp = m.multiply(phi);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(kp[i], res.eigenvalues[j] * mp[i], 1e-6 * res.eigenvalues[j]);
    for (std::size_t jj = 0; jj <= j; ++jj) {
      an::Vector other(n);
      for (std::size_t i = 0; i < n; ++i) other[i] = res.eigenvectors(i, jj);
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += other[i] * mp[i];
      EXPECT_NEAR(dot, jj == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(EigenGeneralizedSparse, CgFallbackMatchesSkylinePath) {
  // Subspace width q = 12 with 5q <= n, so the solve iterates rather than
  // taking the exact identity-block pass.
  const std::size_t n = 60, nm = 4;
  an::CsrMatrix k, m;
  chain_pencil(n, k, m);
  const auto direct = an::eigen_generalized_sparse(k, m, nm);
  an::SparseEigenOptions opts;
  opts.max_envelope = 1;  // force the conjugate-gradient inner solver
  ExecutionConfig cfg;
  cfg.threads = 1;
  cfg.telemetry = true;
  ExecutionContext ctx(cfg);
  const ExecutionContext::Use use(ctx);
  const auto iterative = an::eigen_generalized_sparse(k, m, nm, opts);
  const auto counters = aeropack::obs::current().counters();
  EXPECT_EQ(counters.at("numeric.eigen.cg_fallbacks"), 1u);
  EXPECT_GT(counters.at("numeric.eigen.subspace_iterations"), 1u);
  for (std::size_t j = 0; j < nm; ++j)
    EXPECT_NEAR(iterative.eigenvalues[j], direct.eigenvalues[j],
                1e-8 * direct.eigenvalues[j]);
}

TEST(EigenGeneralizedSparse, InvalidArgumentsThrow) {
  an::CsrMatrix k, m;
  chain_pencil(8, k, m);
  EXPECT_THROW(an::eigen_generalized_sparse(k, m, 0), std::invalid_argument);
  EXPECT_THROW(an::eigen_generalized_sparse(k, m, 9), std::invalid_argument);
  an::CsrMatrix k2, m2;
  chain_pencil(5, k2, m2);
  EXPECT_THROW(an::eigen_generalized_sparse(k, m2, 2), std::invalid_argument);
}
