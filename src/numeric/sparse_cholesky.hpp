// Skyline (envelope) Cholesky factorization for sparse SPD matrices.
//
// The FEM stack's reduced stiffness matrices are banded under the natural
// row-major node ordering, so an envelope factorization — storing each row
// of L from its first structural nonzero to the diagonal — gives direct
// O(n b^2) solves where the dense path costs O(n^3). This is the inner
// factorization of the shift-invert modal solver (numeric/eigen.hpp); when
// the envelope would be too large, callers fall back to conjugate_gradient.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::numeric {

/// Envelope Cholesky A = L L^T of a symmetric positive-definite CSR matrix.
/// Only the lower triangle of `a` is read (the structure is assumed
/// symmetric, which FEM assembly guarantees).
///
/// Throws std::domain_error if the matrix is not numerically positive
/// definite, std::length_error if the envelope exceeds `max_envelope`
/// entries (callers should fall back to an iterative solve).
class SkylineCholesky {
 public:
  explicit SkylineCholesky(const CsrMatrix& a,
                           std::size_t max_envelope = std::size_t{1} << 28);

  std::size_t size() const { return n_; }
  /// Stored entries of L (the envelope), for diagnostics/benches.
  std::size_t envelope_size() const { return values_.size(); }

  /// Solve A x = b (forward + backward substitution). Serial and therefore
  /// bit-deterministic across thread counts.
  Vector solve(const Vector& b) const;
  /// Solve A X = B for q right-hand sides in one pass over L. `x` holds B
  /// row-major (x[i * q + c] is entry i of column c) and is overwritten
  /// with X. Each column is bitwise equal to solve() on that column alone:
  /// the same operations run in the same order, q columns at a time.
  /// Throws std::invalid_argument unless q > 0 and x.size() == size() * q.
  void solve_block(std::vector<double>& x, std::size_t q) const;

 private:
  double& l(std::size_t i, std::size_t j) { return values_[offset_[i] + j - first_[i]]; }
  double l(std::size_t i, std::size_t j) const { return values_[offset_[i] + j - first_[i]]; }

  std::size_t n_ = 0;
  std::vector<std::size_t> first_;   ///< first stored column of each row
  std::vector<std::size_t> offset_;  ///< row start in values_
  std::vector<double> values_;       ///< rows first_[i]..i, contiguous
};

}  // namespace aeropack::numeric
