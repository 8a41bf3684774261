#include "fem/modal.hpp"

#include <algorithm>
#include <stdexcept>

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

ReducedModes solve_reduced_modes(const CsrMatrix& k, const CsrMatrix& m,
                                 const ModalOptions& opts) {
  if (k.rows() != k.cols() || m.rows() != m.cols() || k.rows() != m.rows())
    throw std::invalid_argument("solve_reduced_modes: shape mismatch");
  const std::size_t n = k.rows();
  if (n == 0) throw std::invalid_argument("solve_reduced_modes: empty system");

  bool dense = true;
  switch (opts.path) {
    case ModalPath::Dense: dense = true; break;
    case ModalPath::Sparse: dense = false; break;
    case ModalPath::Auto: dense = n <= opts.dense_threshold; break;
  }

  static thread_local obs::CounterHandle modal_solves{"fem.modal_solves"};
  static thread_local obs::CounterHandle dense_solves{"fem.modal_dense"};
  static thread_local obs::CounterHandle sparse_solves{"fem.modal_sparse"};
  modal_solves.add();
  (dense ? dense_solves : sparse_solves).add();
  if (obs::enabled())
    obs::current().gauge("fem.free_dofs").set(static_cast<double>(n));
  obs::ScopedTimer span(dense ? "fem.modal_dense" : "fem.modal_sparse");

  ReducedModes res;
  if (dense) {
    const numeric::EigenResult eig = numeric::eigen_generalized(k.to_dense(), m.to_dense());
    const std::size_t nm = (opts.n_modes == 0) ? n : std::min(opts.n_modes, n);
    res.eigenvalues.assign(eig.eigenvalues.begin(),
                           eig.eigenvalues.begin() + static_cast<std::ptrdiff_t>(nm));
    if (nm == n) {
      res.shapes = eig.eigenvectors;
    } else {
      res.shapes = Matrix(n, nm);
      for (std::size_t j = 0; j < nm; ++j)
        for (std::size_t i = 0; i < n; ++i) res.shapes(i, j) = eig.eigenvectors(i, j);
    }
  } else {
    const std::size_t nm =
        (opts.n_modes == 0) ? std::min<std::size_t>(16, n) : std::min(opts.n_modes, n);
    numeric::SparseEigenOptions seo;
    seo.shift = opts.shift;
    const numeric::EigenResult eig = numeric::eigen_generalized_sparse(k, m, nm, seo);
    res.eigenvalues = eig.eigenvalues;
    res.shapes = eig.eigenvectors;
    res.used_sparse = true;
  }
  res.frequencies_hz = numeric::natural_frequencies_hz(res.eigenvalues);
  return res;
}

std::size_t ModalFactorization::cost_bytes() const {
  return sizeof(ModalFactorization) + (op ? op->cost_bytes() : 0);
}

namespace {

numeric::SparseEigenOptions sparse_options(const ModalOptions& opts) {
  numeric::SparseEigenOptions seo;
  seo.shift = opts.shift;
  return seo;
}

void check_modal_pencil(const CsrMatrix& k, const CsrMatrix& m) {
  if (k.rows() != k.cols() || m.rows() != m.cols() || k.rows() != m.rows())
    throw std::invalid_argument("factorize_modal: shape mismatch");
  if (k.rows() == 0) throw std::invalid_argument("factorize_modal: empty system");
}

}  // namespace

ModalFactorization factorize_modal(const CsrMatrix& k, const CsrMatrix& m,
                                   const ModalOptions& opts) {
  check_modal_pencil(k, m);
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
  check_modal_pencil(k, m);
  const std::size_t n = k.rows();
  if (!cached.op || cached.rows != n)
    throw std::invalid_argument(
        "solve_reduced_modes: cached factorization does not match the pencil size");
  if (cached.shift != opts.shift)
    throw std::invalid_argument(
        "solve_reduced_modes: cached factorization was built for a different shift "
        "(bit-identity with the cold path would not hold)");

  static thread_local obs::CounterHandle modal_solves{"fem.modal_solves"};
  static thread_local obs::CounterHandle sparse_solves{"fem.modal_sparse"};
  modal_solves.add();
  sparse_solves.add();
  if (obs::enabled())
    obs::current().gauge("fem.free_dofs").set(static_cast<double>(n));
  obs::ScopedTimer span("fem.modal_sparse");

  ReducedModes res;
  const std::size_t nm =
      (opts.n_modes == 0) ? std::min<std::size_t>(16, n) : std::min(opts.n_modes, n);
  const numeric::EigenResult eig =
      numeric::eigen_generalized_sparse(k, m, nm, sparse_options(opts), *cached.op);
  res.eigenvalues = eig.eigenvalues;
  res.shapes = eig.eigenvectors;
  res.used_sparse = true;
  res.frequencies_hz = numeric::natural_frequencies_hz(res.eigenvalues);
  return res;
}

}  // namespace aeropack::fem
