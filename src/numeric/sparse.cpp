#include "numeric/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "numeric/amg.hpp"
#include "numeric/parallel.hpp"
#include "numeric/stencil.hpp"
#include "obs/registry.hpp"

namespace aeropack::numeric {

SparseBuilder::SparseBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("SparseBuilder: zero dimension");
}

void SparseBuilder::add(std::size_t i, std::size_t j, double v) {
  if (i >= rows_ || j >= cols_) throw std::out_of_range("SparseBuilder::add");
  entries_.push_back({i, j, v});
}

CsrMatrix SparseBuilder::build() const {
  // Two stable counting passes, by column and then by row, leave the
  // entries in (row, column) order with duplicates in insertion order, so
  // FEM assembly sums element contributions in element order, bit-identical
  // to a dense scatter loop. After the row pass, row_end[r] is the end of
  // row r's entries in `order`.
  const std::size_t ne = entries_.size();
  std::vector<std::size_t> col_end(cols_ + 1, 0);
  for (const Entry& e : entries_) ++col_end[e.j + 1];
  for (std::size_t c = 0; c < cols_; ++c) col_end[c + 1] += col_end[c];
  std::vector<std::size_t> by_col(ne);
  for (std::size_t k = 0; k < ne; ++k) by_col[col_end[entries_[k].j]++] = k;

  std::vector<std::size_t> row_end(rows_ + 1, 0);
  for (const Entry& e : entries_) ++row_end[e.i + 1];
  for (std::size_t r = 0; r < rows_; ++r) row_end[r + 1] += row_end[r];
  std::vector<std::size_t> order(ne);
  for (const std::size_t k : by_col) order[row_end[entries_[k].i]++] = k;

  std::vector<std::size_t> row_ptr(rows_ + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(ne);
  values.reserve(ne);
  std::size_t k = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t row_start = values.size();
    for (; k < row_end[r]; ++k) {
      const Entry& e = entries_[order[k]];
      if (values.size() > row_start && col_idx.back() == e.j) {
        values.back() += e.v;  // duplicate entry: accumulate
      } else {
        col_idx.push_back(e.j);
        values.push_back(e.v);
      }
    }
    row_ptr[r + 1] = values.size();
  }
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx), std::move(values));
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      pattern_(std::make_shared<const Pattern>(Pattern{std::move(row_ptr), std::move(col_idx)})),
      values_(std::move(values)) {
  const std::vector<std::size_t>& rp = pattern_->row_ptr;
  const std::vector<std::size_t>& ci = pattern_->col_idx;
  if (rp.size() != rows_ + 1 || ci.size() != values_.size() || rp.back() != values_.size())
    throw std::invalid_argument("CsrMatrix: inconsistent structure");
  // Sorted-column invariant: at() relies on binary search within each row.
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = rp[i] + 1; k < rp[i + 1]; ++k)
      if (ci[k - 1] >= ci[k])
        throw std::invalid_argument("CsrMatrix: column indices not strictly sorted within row");
  for (const std::size_t j : ci)
    if (j >= cols_) throw std::invalid_argument("CsrMatrix: column index out of range");
}

Vector CsrMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply(x, y);
  return y;
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  if (x.size() != cols_) throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  assert(&x != &y && "CsrMatrix::multiply: y must not alias x");
  static thread_local obs::CounterHandle spmv_calls{"numeric.spmv.calls"};
  spmv_calls.add();
  y.assign(rows_, 0.0);
  const std::vector<std::size_t>& rp = pattern_->row_ptr;
  const std::vector<std::size_t>& ci = pattern_->col_idx;
  // Grain estimate by nonzeros, not rows: the per-row work is the row's
  // nonzero count, and the row partition is what fans out.
  parallel_for(0, rows_,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) {
                   double acc = 0.0;
                   for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) acc += values_[k] * x[ci[k]];
                   y[i] = acc;
                 }
               },
               grain::Work::elements(nonzeros(), grain::Cost::kSpmv));
}

void CsrMatrix::multiply_block(const std::vector<double>& x, std::vector<double>& y,
                               std::size_t q) const {
  if (q == 0 || x.size() != cols_ * q)
    throw std::invalid_argument("CsrMatrix::multiply_block: size mismatch");
  assert(&x != &y && "CsrMatrix::multiply_block: y must not alias x");
  static thread_local obs::CounterHandle spmv_calls{"numeric.spmv.calls"};
  spmv_calls.add(q);
  y.assign(rows_ * q, 0.0);
  const std::vector<std::size_t>& rp = pattern_->row_ptr;
  const std::vector<std::size_t>& ci = pattern_->col_idx;
  // Column c of row i starts at 0 and accumulates values_[k] * x[ci[k]] in
  // k order, exactly as multiply() does.
  parallel_for(0, rows_,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i)
                   for (std::size_t k = rp[i]; k < rp[i + 1]; ++k)
                     axpy_row(values_[k], &x[ci[k] * q], &y[i * q], q);
               },
               grain::Work::elements(nonzeros() * q, grain::Cost::kSpmvBlock));
}

Vector CsrMatrix::diagonal() const {
  Vector d(std::min(rows_, cols_), 0.0);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = at(i, i);
  return d;
}

double CsrMatrix::at(std::size_t i, std::size_t j) const {
  if (i >= rows_ || j >= cols_) throw std::out_of_range("CsrMatrix::at");
  const std::vector<std::size_t>& ci = pattern_->col_idx;
  const auto first = ci.begin() + static_cast<std::ptrdiff_t>(pattern_->row_ptr[i]);
  const auto last = ci.begin() + static_cast<std::ptrdiff_t>(pattern_->row_ptr[i + 1]);
  const auto it = std::lower_bound(first, last, j);
  if (it == last || *it != j) return 0.0;
  return values_[static_cast<std::size_t>(it - ci.begin())];
}

double CsrMatrix::asymmetry() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = row_ptr()[i]; k < row_ptr()[i + 1]; ++k) {
      const std::size_t j = col_idx()[k];
      worst = std::max(worst, std::fabs(values_[k] - at(j, i)));
    }
  return worst;
}

Matrix CsrMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = row_ptr()[i]; k < row_ptr()[i + 1]; ++k) m(i, col_idx()[k]) += values_[k];
  return m;
}

CsrMatrix add_scaled(const CsrMatrix& a, double alpha, const CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("add_scaled: shape mismatch");
  std::vector<std::size_t> row_ptr(a.rows() + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(a.nonzeros() + b.nonzeros());
  values.reserve(a.nonzeros() + b.nonzeros());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    std::size_t ka = a.row_ptr()[i];
    std::size_t kb = b.row_ptr()[i];
    const std::size_t ea = a.row_ptr()[i + 1];
    const std::size_t eb = b.row_ptr()[i + 1];
    while (ka < ea || kb < eb) {
      const std::size_t ja = ka < ea ? a.col_idx()[ka] : static_cast<std::size_t>(-1);
      const std::size_t jb = kb < eb ? b.col_idx()[kb] : static_cast<std::size_t>(-1);
      if (ja < jb) {
        col_idx.push_back(ja);
        values.push_back(a.values()[ka++]);
      } else if (jb < ja) {
        col_idx.push_back(jb);
        values.push_back(alpha * b.values()[kb++]);
      } else {
        col_idx.push_back(ja);
        values.push_back(a.values()[ka++] + alpha * b.values()[kb++]);
      }
    }
    row_ptr[i + 1] = values.size();
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

namespace {

// The two operator forms the CG loops below are instantiated for. Every
// difference between them lives in these two overload pairs.
Vector diagonal_of(const CsrMatrix& a) { return a.diagonal(); }
const Vector& diagonal_of(const StencilMatrix& a) { return a.diagonal(); }

/// q = A p and <p, q>: the stencil fuses the two into one sweep per
/// reduction chunk, with the same bits as the separate kernels.
double multiply_dot(const CsrMatrix& a, const Vector& p, Vector& q) {
  a.multiply(p, q);
  return parallel_dot(p, q);
}
double multiply_dot(const StencilMatrix& a, const Vector& p, Vector& q) {
  return a.multiply_dot(p, q);
}

Vector jacobi_preconditioner(Vector inv_d) {
  for (double& v : inv_d) v = (v != 0.0) ? 1.0 / v : 1.0;
  return inv_d;
}

/// Shared prologue of both CG loops: shape checks, the zero right-hand side
/// and the warm-start residual. Leaves r = b - A x0 and returns true when
/// `res` still needs iterating.
template <typename Op>
bool cg_start(const Op& a, const Vector& b, const IterativeOptions& opts,
              const Vector* x0, IterativeResult& res, Vector& r, double& bnorm) {
  if (a.rows() != a.cols() || b.size() != a.rows())
    throw std::invalid_argument("conjugate_gradient: shape mismatch");
  if (x0 && x0->size() != b.size())
    throw std::invalid_argument("conjugate_gradient: warm-start size mismatch");
  const std::size_t n = b.size();
  bnorm = parallel_norm2(b);
  if (bnorm == 0.0) {
    res.x.assign(n, 0.0);
    res.converged = true;
    return false;
  }
  res.x = x0 ? *x0 : Vector(n, 0.0);
  r.resize(n);
  if (x0) {
    a.multiply(res.x, r);  // r = b - A x0
    parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) r[i] = b[i] - r[i];
    });
    res.residual = parallel_norm2(r) / bnorm;
    if (res.residual < opts.tolerance) {
      res.converged = true;  // warm start already good enough
      return false;
    }
  } else {
    r = b;  // r = b - A*0
  }
  return true;
}

template <typename Op>
IterativeResult jacobi_cg(const Op& a, const Vector& b, const IterativeOptions& opts,
                          const Vector* x0) {
  IterativeResult res;
  Vector r;
  double bnorm = 0.0;
  if (!cg_start(a, b, opts, x0, res, r, bnorm)) return res;
  const std::size_t n = b.size();
  const Vector inv_d = jacobi_preconditioner(diagonal_of(a));
  Vector z(n);
  double rz = fused_hadamard_dot(inv_d, r, z);
  Vector p = z;
  Vector ap(n);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    const double pap = multiply_dot(a, p, ap);
    if (pap <= 0.0) break;  // not SPD (or breakdown)
    const double alpha = rz / pap;
    // One fused sweep replaces two axpys, a hadamard and two dots: updates
    // x and r, refreshes D^-1 r, and returns <r,r> and <r, D^-1 r> through
    // the same fixed-chunk in-order reduction the separate kernels used —
    // iterates and residuals are bit-identical to the unfused loop.
    const CgFused f = cg_fused_update(alpha, p, ap, inv_d, res.x, r, z);
    res.iterations = it + 1;
    res.residual = std::sqrt(f.rr) / bnorm;
    if (res.residual < opts.tolerance) {
      res.converged = true;
      return res;
    }
    const double beta = f.rz / rz;
    rz = f.rz;
    parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) p[i] = z[i] + beta * p[i];
    });
  }
  return res;
}

/// Energy-conserving finish of a multigrid-preconditioned solve: the
/// Galerkin correction on the ones vector, the near-kernel every aggregate
/// interpolates. x += c 1 with c = sum(r) / (1^T A 1) minimises the A-norm
/// error along 1, and leaves sum(b - A x), the global energy imbalance of
/// an FV system, at rounding level. Multigrid leaves its last error in the
/// smoothest mode, whose residual sums coherently (~2e-6 W on the 48^3
/// slab, against ~3e-8 W for Jacobi-CG, whose last error oscillates).
/// r is recomputed as the true residual.
template <typename Op>
void conserve(const Op& a, const Vector& b, double total_coupling, Vector& x, Vector& r) {
  if (!(total_coupling > 0.0)) return;  // no net coupling to a sink
  const double c = parallel_sum(r) / total_coupling;
  parallel_for(0, x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) x[i] += c;
  });
  a.multiply(x, r);
  parallel_for(0, r.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) r[i] = b[i] - r[i];
  });
}

/// Flexible CG preconditioned by one AMG cycle per iteration. The cycle is
/// not a fixed linear operator (its K-cycles are Krylov steps), so beta is
/// the Polak–Ribière form <z_k, r_k - r_{k-1}> / <z_{k-1}, r_{k-1}>; with
/// r_k - r_{k-1} = -alpha q that is -<z_k, q> / <p, q>, read off the q the
/// iteration already holds.
template <typename Op>
IterativeResult amg_cg(const Op& a, const Vector& b, const IterativeOptions& opts,
                       const Vector* x0, AmgWorkspace& amg) {
  IterativeResult res;
  Vector r;
  double bnorm = 0.0;
  if (!cg_start(a, b, opts, x0, res, r, bnorm)) return res;
  const std::size_t n = b.size();
  amg.refresh(a);
  // xs is the fine pre-smoothing sweep smoothing() ∘ r that every cycle
  // starts from; after the first it rides the fused residual update.
  Vector xs(n), z(n), q(n);
  (void)fused_hadamard_dot(amg.smoothing(), r, xs);
  amg.apply(a, r, xs, z);
  double rz = parallel_dot(r, z);
  Vector p = z;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    const double pq = multiply_dot(a, p, q);
    if (pq <= 0.0) break;  // not SPD (or breakdown)
    const double alpha = rz / pq;
    const CgFused f = cg_fused_update(alpha, p, q, amg.smoothing(), res.x, r, xs);
    res.iterations = it + 1;
    res.residual = std::sqrt(f.rr) / bnorm;
    if (res.residual < opts.tolerance) {
      conserve(a, b, amg.total_coupling(), res.x, r);
      res.residual = parallel_norm2(r) / bnorm;
      if (res.residual < opts.tolerance) {
        res.converged = true;
        return res;
      }
      // Not seen in practice: keep iterating from the corrected iterate.
      (void)fused_hadamard_dot(amg.smoothing(), r, xs);
    }
    amg.apply(a, r, xs, z);
    rz = parallel_dot(r, z);
    const double beta = -parallel_dot(z, q) / pq;
    parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) p[i] = z[i] + beta * p[i];
    });
  }
  return res;
}

template <typename Op>
IterativeResult solve_cg(const Op& a, const Vector& b, const IterativeOptions& opts,
                         const Vector* x0, AmgWorkspace* amg) {
  static thread_local obs::CounterHandle cg_solves{"numeric.cg.solves"};
  static thread_local obs::CounterHandle cg_iters{"numeric.cg.iterations"};
  static thread_local obs::CounterHandle cg_warm{"numeric.cg.warmstart_hits"};
  obs::ScopedTimer span("numeric.cg");
  const std::uint64_t cycles0 = amg ? amg->cycles() : 0;
  const IterativeResult res =
      amg ? amg_cg(a, b, opts, x0, *amg) : jacobi_cg(a, b, opts, x0);
  if (amg) {
    static thread_local obs::CounterHandle amg_cycles{"numeric.amg.cycles"};
    amg_cycles.add(amg->cycles() - cycles0);
  }
  cg_solves.add();
  cg_iters.add(res.iterations);
  // A warm start good enough that CG never iterated (covers the trivial
  // zero-RHS solve too — the warm start is exact there).
  if (x0 != nullptr && res.converged && res.iterations == 0) cg_warm.add();
  if (obs::enabled()) {
    static thread_local obs::GaugeHandle cg_residual{"numeric.cg.last_residual"};
    static thread_local obs::GaugeHandle cg_last_iters{"numeric.cg.last_iterations"};
    cg_residual.set(res.residual);
    cg_last_iters.set(static_cast<double>(res.iterations));
  }
  return res;
}

}  // namespace

IterativeResult conjugate_gradient(const CsrMatrix& a, const Vector& b,
                                   const IterativeOptions& opts, const Vector* x0,
                                   AmgWorkspace* amg) {
  return solve_cg(a, b, opts, x0, amg);
}

IterativeResult conjugate_gradient(const StencilMatrix& a, const Vector& b,
                                   const IterativeOptions& opts, const Vector* x0,
                                   AmgWorkspace* amg) {
  return solve_cg(a, b, opts, x0, amg);
}

}  // namespace aeropack::numeric
