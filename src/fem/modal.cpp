#include "fem/modal.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "numeric/eigen.hpp"
#include "obs/registry.hpp"

namespace aeropack::fem {

using numeric::CsrMatrix;
using numeric::Matrix;
using numeric::Vector;

void clamp_massless_diagonal(CsrMatrix& m, double epsilon) {
  const std::size_t n = std::min(m.rows(), m.cols());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cols = m.col_idx();
    std::size_t lo = m.row_ptr()[i];
    const std::size_t hi = m.row_ptr()[i + 1];
    while (lo < hi && cols[lo] < i) ++lo;
    if (lo == hi || cols[lo] != i)
      throw std::logic_error(
          "clamp_massless_diagonal: structural diagonal entry missing "
          "(assemble an explicit zero on every free diagonal)");
    if (m.values()[lo] <= 0.0) m.values()[lo] = epsilon;
  }
}

namespace {

void check_modal_pencil(const CsrMatrix& k, const CsrMatrix& m, const char* who) {
  if (k.rows() != k.cols() || m.rows() != m.cols() || k.rows() != m.rows())
    throw std::invalid_argument(std::string(who) + ": shape mismatch");
  if (k.rows() == 0) throw std::invalid_argument(std::string(who) + ": empty system");
}

/// The mode count a solve on an n-free-DOF pencil returns.
std::size_t mode_count(std::size_t n, const ModalOptions& opts) {
  return opts.n_modes == 0 ? std::min<std::size_t>(16, n) : std::min(opts.n_modes, n);
}

numeric::SparseEigenOptions sparse_options(const ModalOptions& opts) {
  numeric::SparseEigenOptions seo;
  seo.shift = opts.shift;
  return seo;
}

/// The one body of the cold (`cached` null) and cached solves.
ReducedModes solve_modes(const CsrMatrix& k, const CsrMatrix& m, const ModalOptions& opts,
                         const numeric::ShiftedFactorization* cached) {
  const std::size_t n = k.rows();
  static thread_local obs::CounterHandle modal_solves{"fem.modal_solves"};
  modal_solves.add();
  if (obs::enabled())
    obs::current().gauge("fem.free_dofs").set(static_cast<double>(n));
  obs::ScopedTimer span("fem.modal_sparse");

  const std::size_t nm = mode_count(n, opts);
  numeric::EigenResult eig =
      cached ? numeric::eigen_generalized_sparse(k, m, nm, sparse_options(opts), *cached)
             : numeric::eigen_generalized_sparse(k, m, nm, sparse_options(opts));
  ReducedModes res;
  res.eigenvalues = std::move(eig.eigenvalues);
  res.shapes = std::move(eig.eigenvectors);
  res.frequencies_hz = numeric::natural_frequencies_hz(res.eigenvalues);
  return res;
}

}  // namespace

ReducedModes solve_reduced_modes(const CsrMatrix& k, const CsrMatrix& m,
                                 const ModalOptions& opts) {
  check_modal_pencil(k, m, "solve_reduced_modes");
  return solve_modes(k, m, opts, nullptr);
}

bool modal_iterates(std::size_t free_dofs, const ModalOptions& opts) {
  return !numeric::sparse_eigen_exact_pass(free_dofs, mode_count(free_dofs, opts));
}

std::size_t ModalFactorization::cost_bytes() const {
  return sizeof(ModalFactorization) + (op ? op->cost_bytes() : 0);
}

ModalFactorization factorize_modal(const CsrMatrix& k, const CsrMatrix& m,
                                   const ModalOptions& opts) {
  check_modal_pencil(k, m, "factorize_modal");
  static thread_local obs::CounterHandle factorizations{"fem.modal_factorizations"};
  factorizations.add();
  ModalFactorization f;
  f.rows = k.rows();
  f.shift = opts.shift;
  numeric::ShiftedFactorization op = numeric::factorize_shift_invert(k, m, sparse_options(opts));
  f.ladder_free = op.sigma == opts.shift;
  f.op = std::make_shared<const numeric::ShiftedFactorization>(std::move(op));
  return f;
}

ReducedModes solve_reduced_modes(const CsrMatrix& k, const CsrMatrix& m,
                                 const ModalOptions& opts, const ModalFactorization& cached) {
  check_modal_pencil(k, m, "solve_reduced_modes");
  if (!cached.op || cached.rows != k.rows())
    throw std::invalid_argument(
        "solve_reduced_modes: cached factorization does not match the pencil size");
  if (cached.shift != opts.shift)
    throw std::invalid_argument(
        "solve_reduced_modes: cached factorization was built for a different shift "
        "(bit-identity with the cold path would not hold)");
  return solve_modes(k, m, opts, cached.op.get());
}

}  // namespace aeropack::fem
