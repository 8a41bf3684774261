// Symmetric and generalized symmetric-definite eigensolvers.
//
// Modal analysis in the FEM module solves K phi = lambda M phi with K
// symmetric positive semi-definite and M symmetric positive definite.
// We reduce to a standard symmetric problem via the Cholesky factor of M
// and diagonalize it with Householder tridiagonalization plus implicit QL
// (Golub & Van Loan §8.3; EISPACK tred2/tql2): serial, deterministic, and
// accurate to a few ulps of the largest eigenvalue. That one symmetric
// solver serves the exact pass and the Rayleigh-Ritz step of the sparse
// modal solve and the ROM's POD.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::numeric {

class SkylineCholesky;

struct EigenResult {
  Vector eigenvalues;   ///< ascending order
  Matrix eigenvectors;  ///< column j pairs with eigenvalues[j]
};

/// Eigen-decomposition of a symmetric matrix: Householder reduction to
/// tridiagonal form, then implicit QL. Eigenvectors are orthonormal.
/// Throws std::invalid_argument if `a` is not square or not symmetric to tol.
EigenResult eigen_symmetric(const Matrix& a, double symmetry_tol = 1e-8);

/// Generalized problem K x = lambda M x, K symmetric, M symmetric positive
/// definite. Eigenvectors are M-orthonormal: X^T M X = I.
/// Throws std::domain_error if M is indefinite or singular.
EigenResult eigen_generalized(const Matrix& k, const Matrix& m);

struct SparseEigenOptions {
  /// Spectral shift sigma for the shift-invert operator (K - sigma*M)^-1 M.
  /// 0 targets the lowest modes; if K - sigma*M is not positive definite the
  /// solver retries with negative shifts (K + |sigma|M is SPD for PSD K).
  double shift = 0.0;
  /// Envelope budget for the skyline factorization of K - sigma*M; when
  /// exceeded the solver falls back to conjugate gradients.
  std::size_t max_envelope = std::size_t{1} << 28;
};

/// A factorized shift-invert operator (K - sigma*M)^-1 — the expensive half
/// of a sparse modal solve, split out so a scenario cache can build it once
/// and share it across solves. solve() is const, serial and therefore
/// bit-deterministic, so concurrent solves on a shared factorization are
/// race-free and reproduce the owning solve's bits exactly.
///
/// Caching contract: the factorization depends on K, M, `sigma` and the
/// envelope budget. When the shift ladder retried (the stored `sigma`
/// differs from the requested shift) the operator mixes M into the factored
/// matrix even though the request looked K-only — callers must only cache a
/// factorization under a key that covers every matrix the resolved shift
/// mixes in (see fem::factorize_modal, which caches only ladder-free
/// sigma == 0 factorizations keyed by K alone).
struct ShiftedFactorization {
  std::shared_ptr<const SkylineCholesky> factor;  ///< null => CG fallback
  CsrMatrix matrix;                               ///< K - sigma*M (kept for CG)
  double sigma = 0.0;

  /// y = (K - sigma*M)^-1 b via the skyline factor, or CG when the envelope
  /// was over budget. Throws std::domain_error if the CG fallback stalls.
  Vector solve(const Vector& b) const;
  /// The same for q right-hand sides held row-major in `x` (x[i * q + c] is
  /// entry i of column c), overwritten with the solutions: one pass of
  /// SkylineCholesky::solve_block, or one CG solve per column. Each column
  /// is bitwise equal to solve() on that column.
  void solve_block(std::vector<double>& x, std::size_t q) const;
  /// Approximate resident size, for cost-aware cache eviction.
  std::size_t cost_bytes() const;
};

/// Build the shift-invert operator for `eigen_generalized_sparse`: factor
/// K - sigma*M, walking a ladder of increasingly negative shifts when the
/// requested one is indefinite (K + |sigma|*M is SPD for PSD K and PD M, so
/// the ladder terminates for well-posed pencils). Falls back to an
/// unfactored CG operator when the envelope exceeds opts.max_envelope.
/// Throws std::domain_error when no trial shift yields a usable operator.
ShiftedFactorization factorize_shift_invert(const CsrMatrix& k, const CsrMatrix& m,
                                            const SparseEigenOptions& opts = {});

/// Lowest `n_modes` eigenpairs of K x = lambda M x for sparse symmetric K
/// (positive semi-definite) and M (positive definite). Eigenvectors are
/// M-orthonormal. The subspace width is q = min(n, max(2*n_modes,
/// n_modes + 8)). When 5q > n the solve is one exact Rayleigh-Ritz pass on
/// the identity block: the dense generalized solve, decided before any
/// factorization, whose leading pairs it returns bit for bit. It succeeds
/// for every mode count up to the DOF count and beats iterating on pencils
/// that small. Otherwise it is shift-invert subspace iteration with
/// Rayleigh-Ritz projection: it starts from a fixed-seed generic block,
/// solves the whole block per pass (SkylineCholesky::solve_block) and forms
/// Y^T K Y from the right-hand sides the solve just used, so it costs 2q
/// SpMVs per pass, and stops once the leading Ritz values drift by at most
/// 1e-12 relative (100 passes at most). The inner factorization is a serial
/// skyline Cholesky (CG fallback), the SpMV/dot kernels run on the
/// deterministic parallel layer, so results are bit-identical across thread
/// counts.
/// Throws std::invalid_argument on shape errors, std::domain_error if no
/// trial shift yields a usable operator.
EigenResult eigen_generalized_sparse(const CsrMatrix& k, const CsrMatrix& m,
                                     std::size_t n_modes,
                                     const SparseEigenOptions& opts = {});
/// True when eigen_generalized_sparse solves an n-DOF pencil for n_modes
/// modes by its exact identity-block pass (5q > n): it then factorizes
/// nothing and reads no ShiftedFactorization it is handed.
bool sparse_eigen_exact_pass(std::size_t n, std::size_t n_modes);
/// Same solve on a pre-built (possibly cache-shared) factorization of
/// exactly this (K, M, opts) combination. Bit-identical to the factorizing
/// overload; performs no factorization work, so "numeric.skyline.*" counters
/// stay untouched on a cache hit. The exact pass leaves `op` unused.
/// Throws std::invalid_argument if `op` does not match the pencil's size.
EigenResult eigen_generalized_sparse(const CsrMatrix& k, const CsrMatrix& m,
                                     std::size_t n_modes, const SparseEigenOptions& opts,
                                     const ShiftedFactorization& op);

/// Natural frequencies [Hz] from generalized stiffness/mass eigenvalues.
/// Eigenvalues within a small tolerance of zero (rigid-body-mode noise)
/// clamp to 0; genuinely negative eigenvalues indicate an indefinite pencil
/// and throw std::domain_error instead of being silently flattened.
Vector natural_frequencies_hz(const Vector& eigenvalues);
Vector natural_frequencies_hz(const EigenResult& modes);

}  // namespace aeropack::numeric
