#include "numeric/sparse_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/registry.hpp"

namespace aeropack::numeric {

SkylineCholesky::SkylineCholesky(const CsrMatrix& a, std::size_t max_envelope) : n_(a.rows()) {
  if (a.rows() != a.cols() || n_ == 0)
    throw std::invalid_argument("SkylineCholesky: matrix must be square and non-empty");

  // Envelope of the lower triangle: row i spans [first_[i], i]. Fill-in from
  // the factorization stays inside the envelope, so it is computed once from
  // the input structure.
  first_.resize(n_);
  offset_.resize(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    // Columns are sorted, so the row's first stored column is the edge.
    const std::size_t k0 = a.row_ptr()[i];
    std::size_t first = i;
    if (k0 < a.row_ptr()[i + 1] && a.col_idx()[k0] < i) first = a.col_idx()[k0];
    first_[i] = first;
    offset_[i + 1] = offset_[i] + (i - first + 1);
  }
  if (offset_[n_] > max_envelope)
    throw std::length_error("SkylineCholesky: envelope too large");
  values_.assign(offset_[n_], 0.0);

  // Copy the lower triangle of A into the envelope.
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t j = a.col_idx()[k];
      if (j > i) break;
      l(i, j) = a.values()[k];
    }

  // Row-oriented envelope factorization.
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = first_[i]; j < i; ++j) {
      double sum = l(i, j);
      const std::size_t lo = std::max(first_[i], first_[j]);
      for (std::size_t k = lo; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / l(j, j);
    }
    double diag = l(i, i);
    for (std::size_t k = first_[i]; k < i; ++k) diag -= l(i, k) * l(i, k);
    if (!(diag > 0.0) || !std::isfinite(diag))
      throw std::domain_error("SkylineCholesky: matrix not positive definite");
    l(i, i) = std::sqrt(diag);
  }

  // Counted only on success: indefinite/over-budget attempts are reported by
  // the shift-ladder instrumentation in eigen.cpp instead.
  static thread_local obs::CounterHandle factorizations{"numeric.skyline.factorizations"};
  factorizations.add();
  if (obs::enabled()) {
    static thread_local obs::GaugeHandle envelope{"numeric.skyline.last_envelope"};
    envelope.set(static_cast<double>(offset_[n_]));
  }
}

Vector SkylineCholesky::solve(const Vector& b) const {
  if (b.size() != n_) throw std::invalid_argument("SkylineCholesky::solve: size mismatch");
  Vector x = b;
  // Forward: L y = b.
  for (std::size_t i = 0; i < n_; ++i) {
    double sum = x[i];
    for (std::size_t k = first_[i]; k < i; ++k) sum -= l(i, k) * x[k];
    x[i] = sum / l(i, i);
  }
  // Backward: L^T x = y, column sweep.
  for (std::size_t ip = n_; ip > 0; --ip) {
    const std::size_t i = ip - 1;
    x[i] /= l(i, i);
    for (std::size_t k = first_[i]; k < i; ++k) x[k] -= l(i, k) * x[i];
  }
  return x;
}

void SkylineCholesky::solve_block(std::vector<double>& x, std::size_t q) const {
  if (q == 0 || x.size() != n_ * q)
    throw std::invalid_argument("SkylineCholesky::solve_block: size mismatch");
  double* const xb = x.data();
  // Forward: L Y = B, row i of every column at once.
  for (std::size_t i = 0; i < n_; ++i) {
    double* const xi = xb + i * q;
    for (std::size_t k = first_[i]; k < i; ++k) axpy_row(-l(i, k), xb + k * q, xi, q);
    const double d = l(i, i);
    for (std::size_t c = 0; c < q; ++c) xi[c] /= d;
  }
  // Backward: L^T X = Y, column sweep.
  for (std::size_t ip = n_; ip > 0; --ip) {
    const std::size_t i = ip - 1;
    double* const xi = xb + i * q;
    const double d = l(i, i);
    for (std::size_t c = 0; c < q; ++c) xi[c] /= d;
    for (std::size_t k = first_[i]; k < i; ++k) axpy_row(-l(i, k), xi, xb + k * q, q);
  }
}

}  // namespace aeropack::numeric
