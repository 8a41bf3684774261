#include "numeric/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "numeric/solve_dense.hpp"
#include "numeric/sparse_cholesky.hpp"
#include "obs/registry.hpp"

namespace aeropack::numeric {

namespace {

/// Householder reduction of the symmetric matrix held in `v` to tridiagonal
/// form (EISPACK tred2; Golub & Van Loan §8.3.1). On return d holds the
/// diagonal, e[1..n) the subdiagonal (e[0] = 0) and v the accumulated
/// orthogonal transformation.
void tridiagonalize(Matrix& v, Vector& d, Vector& e) {
  const std::size_t n = v.rows();
  for (std::size_t j = 0; j < n; ++j) d[j] = v(n - 1, j);
  for (std::size_t i = n - 1; i > 0; --i) {
    // Scale the row to avoid under/overflow in the Householder vector.
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;
      // Apply the similarity transformation to the remaining columns.
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        g = e[j] + v(j, j) * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += v(k, j) * d[k];
          e[k] += v(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) v(k, j) -= f * e[k] + g * d[k];
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }
  // Accumulate the transformations.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = v(k, i + 1) / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += v(k, i + 1) * v(k, j);
        for (std::size_t k = 0; k <= i; ++k) v(k, j) -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

/// sqrt(a^2 + b^2) without overflow or destructive underflow (Numerical
/// Recipes' pythag): a third of std::hypot's cost, which dominated the
/// rotations of the small Rayleigh-Ritz solves.
double pythag(double a, double b) {
  const double abs_a = std::fabs(a);
  const double abs_b = std::fabs(b);
  if (abs_a > abs_b) {
    const double t = abs_b / abs_a;
    return abs_a * std::sqrt(1.0 + t * t);
  }
  if (abs_b == 0.0) return 0.0;
  const double t = abs_a / abs_b;
  return abs_b * std::sqrt(1.0 + t * t);
}

/// Apply one plane rotation to a pair of contiguous rows.
inline void rotate_rows(double* __restrict a, double* __restrict b, double c, double s,
                        std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double h = b[k];
    b[k] = s * a[k] + c * h;
    a[k] = c * a[k] - s * h;
  }
}

/// Implicit QL iteration with Wilkinson-type shifts on the tridiagonal
/// (d, e) from tridiagonalize (EISPACK tql2; Golub & Van Loan §8.3.3),
/// accumulating the rotations into the rows of vt, which holds the
/// transformation transposed so that each rotation sweeps two contiguous
/// rows. On return d holds the eigenvalues in ascending order and row j of
/// vt the eigenvector of d[j].
void tridiagonal_ql(Vector& d, Vector& e, Matrix& vt) {
  const std::size_t n = d.size();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  constexpr std::size_t kMaxIterationsPerValue = 60;
  const double eps = std::numeric_limits<double>::epsilon();
  double f = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Find a negligible subdiagonal element; e[n-1] = 0 ends the search.
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    std::size_t m = l;
    while (std::fabs(e[m]) > eps * tst1) ++m;
    // m == l: d[l] is already an eigenvalue. Otherwise iterate.
    for (std::size_t iter = 0; m > l && std::fabs(e[l]) > eps * tst1; ++iter) {
      if (iter == kMaxIterationsPerValue)
        throw std::domain_error("eigen_symmetric: QL iteration did not converge");
      // Implicit shift from the leading 2x2 block.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = pythag(p, 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      f += h;
      // One implicit QL sweep from m - 1 down to l.
      p = d[m];
      double c = 1.0, c2 = 1.0, c3 = 1.0;
      const double el1 = e[l + 1];
      double s = 0.0, s2 = 0.0;
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = pythag(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        rotate_rows(&vt(i, 0), &vt(i + 1, 0), c, s, n);
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += f;
    e[l] = 0.0;
  }
  // Selection sort into ascending order.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    for (std::size_t j = i + 1; j < n; ++j)
      if (d[j] < d[k]) k = j;
    if (k != i) {
      std::swap(d[k], d[i]);
      std::swap_ranges(&vt(i, 0), &vt(i, 0) + n, &vt(k, 0));
    }
  }
}

void transpose_in_place(Matrix& a) {
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = i + 1; j < a.cols(); ++j) std::swap(a(i, j), a(j, i));
}

/// Eigen-decomposition of the exactly symmetric matrix `a`, overwritten by
/// its eigenvectors.
EigenResult symmetric_in_place(Matrix&& a) {
  const std::size_t n = a.rows();
  EigenResult res;
  res.eigenvalues.assign(n, 0.0);
  Vector e(n, 0.0);
  tridiagonalize(a, res.eigenvalues, e);
  transpose_in_place(a);
  tridiagonal_ql(res.eigenvalues, e, a);
  transpose_in_place(a);
  res.eigenvectors = std::move(a);
  return res;
}

}  // namespace

EigenResult eigen_symmetric(const Matrix& a, double symmetry_tol) {
  if (!a.square()) throw std::invalid_argument("eigen_symmetric: matrix must be square");
  const double scale = std::max(a.norm(), 1.0);
  if (a.asymmetry() > symmetry_tol * scale)
    throw std::invalid_argument("eigen_symmetric: matrix not symmetric");
  Matrix v = a;
  v.symmetrize();
  return symmetric_in_place(std::move(v));
}

EigenResult eigen_generalized(const Matrix& k, const Matrix& m) {
  if (!k.square() || !m.square() || k.rows() != m.rows())
    throw std::invalid_argument("eigen_generalized: shape mismatch");
  const std::size_t n = k.rows();
  std::unique_ptr<CholeskyFactorization> chol_ptr;
  try {
    chol_ptr = std::make_unique<CholeskyFactorization>(m);
  } catch (const std::domain_error&) {
    throw std::domain_error(
        "eigen_generalized: mass matrix is not positive definite (indefinite or singular M)");
  }
  const Matrix& l = chol_ptr->lower();

  // A = L^-1 K: forward substitution on every column at once, row by row.
  Matrix a = k;
  for (std::size_t i = 0; i < n; ++i) {
    double* const ai = &a(i, 0);
    for (std::size_t p = 0; p < i; ++p) axpy_row(-l(i, p), &a(p, 0), ai, n);
    const double lii = l(i, i);
    for (std::size_t j = 0; j < n; ++j) ai[j] /= lii;
  }
  // A <- A L^-T: each row solved against L in place.
  for (std::size_t i = 0; i < n; ++i) {
    double* const ai = &a(i, 0);
    for (std::size_t j = 0; j < n; ++j) {
      double acc = ai[j];
      for (std::size_t p = 0; p < j; ++p) acc -= l(j, p) * ai[p];
      ai[j] = acc / l(j, j);
    }
  }
  a.symmetrize();
  EigenResult res = symmetric_in_place(std::move(a));

  // Back-transform eigenvectors in place: phi = L^-T y, every column at
  // once, bottom row first. They come out M-orthonormal.
  Matrix& phi = res.eigenvectors;
  for (std::size_t ii = n; ii-- > 0;) {
    double* const xi = &phi(ii, 0);
    for (std::size_t p = ii + 1; p < n; ++p) axpy_row(-l(p, ii), &phi(p, 0), xi, n);
    const double lii = l(ii, ii);
    for (std::size_t j = 0; j < n; ++j) xi[j] /= lii;
  }
  return res;
}

Vector ShiftedFactorization::solve(const Vector& b) const {
  if (factor) return factor->solve(b);
  IterativeOptions io;
  io.tolerance = 1e-13;
  io.max_iterations = std::max<std::size_t>(10000, 20 * b.size());
  IterativeResult res = conjugate_gradient(matrix, b, io);
  if (!res.converged)
    throw std::domain_error(
        "eigen_generalized_sparse: CG fallback did not converge on the shifted operator");
  return std::move(res.x);
}

void ShiftedFactorization::solve_block(std::vector<double>& x, std::size_t q) const {
  if (factor) {
    factor->solve_block(x, q);
    return;
  }
  if (q == 0 || x.size() != matrix.rows() * q)
    throw std::invalid_argument("ShiftedFactorization::solve_block: size mismatch");
  const std::size_t n = matrix.rows();
  Vector col(n);
  for (std::size_t c = 0; c < q; ++c) {
    for (std::size_t i = 0; i < n; ++i) col[i] = x[i * q + c];
    const Vector y = solve(col);
    for (std::size_t i = 0; i < n; ++i) x[i * q + c] = y[i];
  }
}

std::size_t ShiftedFactorization::cost_bytes() const {
  std::size_t bytes = matrix.values().size() * (sizeof(double) + sizeof(std::size_t)) +
                      matrix.row_ptr().size() * sizeof(std::size_t);
  if (factor) bytes += factor->envelope_size() * sizeof(double);
  return bytes;
}

ShiftedFactorization factorize_shift_invert(const CsrMatrix& k, const CsrMatrix& m,
                                            const SparseEigenOptions& opts) {
  std::vector<double> shifts{opts.shift};
  if (opts.shift == 0.0) {
    const Vector kd = k.diagonal();
    const Vector md = m.diagonal();
    double scale = 0.0;
    for (std::size_t i = 0; i < kd.size(); ++i)
      if (md[i] > 0.0) scale = std::max(scale, kd[i] / md[i]);
    if (scale <= 0.0) scale = 1.0;
    for (const double f : {1e-2, 1e-1, 1.0}) shifts.push_back(-f * scale);
  }
  static thread_local obs::CounterHandle retries{"numeric.eigen.shift_retries"};
  static thread_local obs::CounterHandle fallbacks{"numeric.eigen.cg_fallbacks"};
  for (const double sigma : shifts) {
    ShiftedFactorization op;
    op.sigma = sigma;
    op.matrix = (sigma == 0.0) ? k : add_scaled(k, -sigma, m);
    try {
      op.factor = std::make_shared<const SkylineCholesky>(op.matrix, opts.max_envelope);
      return op;
    } catch (const std::length_error&) {
      fallbacks.add();
      return op;  // envelope over budget: iterative fallback on this shift
    } catch (const std::domain_error&) {
      retries.add();
      continue;  // indefinite at this shift, try a more negative one
    }
  }
  throw std::domain_error(
      "eigen_generalized_sparse: K - sigma*M not positive definite for any trial shift "
      "(is the mass matrix positive definite?)");
}

namespace {

/// Subspace width q of an n-DOF solve for n_modes modes.
std::size_t subspace_width(std::size_t n, std::size_t n_modes) {
  constexpr std::size_t kSubspaceExtra = 8;
  return std::min(n, std::max(2 * n_modes, n_modes + kSubspaceExtra));
}

/// Deterministic start block for the subspace iteration, row-major n x q:
/// one fixed-seed LCG fills column after column, uniform in [-0.5, 0.5), so
/// the block spans a generic q-dimensional subspace. Bathe's unit vectors at
/// the largest mass/stiffness ratios took about one more iteration on the
/// Fig. 2 board and, once q nears n/2, left Y^T M Y numerically singular.
std::vector<double> starting_block(std::size_t n, std::size_t q) {
  std::vector<double> x(n * q);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::size_t c = 0; c < q; ++c)
    for (std::size_t i = 0; i < n; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      x[i * q + c] =
          static_cast<double>(state >> 11) / static_cast<double>(std::uint64_t{1} << 53) - 0.5;
    }
  return x;
}

void check_sparse_eigen_shapes(const CsrMatrix& k, const CsrMatrix& m, std::size_t n_modes) {
  if (k.rows() != k.cols() || m.rows() != m.cols() || k.rows() != m.rows())
    throw std::invalid_argument("eigen_generalized_sparse: shape mismatch");
  const std::size_t n = k.rows();
  if (n == 0 || n_modes == 0 || n_modes > n)
    throw std::invalid_argument("eigen_generalized_sparse: invalid mode count");
}

/// The lowest n_modes eigenpairs, from ascending eigenvalues and an n-row
/// row-major block whose first n_modes columns are their vectors.
EigenResult leading_pairs(const Vector& eigenvalues, const double* vectors, std::size_t n,
                          std::size_t width, std::size_t n_modes) {
  EigenResult res;
  res.eigenvalues.assign(eigenvalues.begin(),
                         eigenvalues.begin() + static_cast<std::ptrdiff_t>(n_modes));
  res.eigenvectors = Matrix(n, n_modes);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n_modes; ++j) res.eigenvectors(i, j) = vectors[i * width + j];
  return res;
}

/// The subspace iteration itself, width q, on an already-built shift-invert
/// operator.
///
/// Every block is n x q row-major (entry i of column c at i * q + c), the
/// layout of CsrMatrix::multiply_block and SkylineCholesky::solve_block,
/// and is sized once per call. The projections and X <- Y Q are serial
/// loops in a fixed order, so the result does not depend on the thread
/// count; the block SpMV is row-partitioned.
EigenResult run_subspace_iteration(const CsrMatrix& k, const CsrMatrix& m,
                                   std::size_t n_modes, std::size_t q,
                                   const ShiftedFactorization& op) {
  // Relative drift of the leading Ritz values that ends the iteration.
  constexpr double kTolerance = 1e-12;
  constexpr std::size_t kMaxIterations = 100;
  const std::size_t n = k.rows();
  static thread_local obs::CounterHandle sweeps{"numeric.eigen.subspace_iterations"};

  std::vector<double> x = starting_block(n, q);
  std::vector<double> mx(n * q), y(n * q), my(n * q);
  Matrix kr(q, q), mr(q, q);
  Vector prev(n_modes, 0.0);
  EigenResult ritz;  // q x q Rayleigh-Ritz solution of the current subspace

  for (std::size_t it = 0; it < kMaxIterations; ++it) {
    sweeps.add();
    // Inverse-iterate the block: Y = (K - sigma*M)^-1 (M X), all q
    // right-hand sides in one pass over the factor.
    m.multiply_block(x, mx, q);
    y = mx;
    op.solve_block(y, q);
    // Project onto the subspace: Mr = Y^T M Y, and Kr = Y^T K Y with the
    // *unshifted* K, so the Ritz values are the physical eigenvalues. The
    // solve gives K Y = M X + sigma M Y, so Kr = Y^T (M X) + sigma Mr
    // reuses the right-hand sides instead of q more SpMVs. Upper triangles
    // only, each entry summed over the rows in order, then mirrored.
    m.multiply_block(y, my, q);
    std::fill(kr.data(), kr.data() + q * q, 0.0);
    std::fill(mr.data(), mr.data() + q * q, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      const double* const yr = &y[r * q];
      const double* const mxr = &mx[r * q];
      const double* const myr = &my[r * q];
      for (std::size_t i = 0; i < q; ++i) {
        axpy_row(yr[i], mxr + i, &kr(i, i), q - i);
        axpy_row(yr[i], myr + i, &mr(i, i), q - i);
      }
    }
    for (std::size_t i = 0; i < q; ++i)
      for (std::size_t j = i; j < q; ++j) {
        kr(i, j) += op.sigma * mr(i, j);
        kr(j, i) = kr(i, j);
        mr(j, i) = mr(i, j);
      }
    try {
      ritz = eigen_generalized(kr, mr);
    } catch (const std::domain_error&) {
      throw std::domain_error(
          "eigen_generalized_sparse: Rayleigh-Ritz mass projection lost rank "
          "(mass matrix indefinite or start block degenerate)");
    }
    // X <- Y Q; since Mr = Y^T M Y and Q is Mr-orthonormal, the new block
    // is M-orthonormal, which keeps the iteration well conditioned.
    const Matrix& qm = ritz.eigenvectors;
    for (std::size_t r = 0; r < n; ++r) {
      const double* const yr = &y[r * q];
      double* const xr = &x[r * q];
      std::fill(xr, xr + q, 0.0);
      for (std::size_t s = 0; s < q; ++s) axpy_row(yr[s], qm.data() + s * q, xr, q);
    }
    double drift = 0.0;
    for (std::size_t j = 0; j < n_modes; ++j) {
      const double lam = ritz.eigenvalues[j];
      drift = std::max(drift, std::fabs(lam - prev[j]) / std::max(std::fabs(lam), 1e-30));
      prev[j] = lam;
    }
    if (it > 0 && drift <= kTolerance) break;
  }
  return leading_pairs(ritz.eigenvalues, x.data(), n, q, n_modes);
}

/// The one body of both public overloads. `cached` null factorizes K -
/// sigma*M when the solve iterates; the exact pass (see
/// sparse_eigen_exact_pass) factorizes nothing.
EigenResult lowest_pairs(const CsrMatrix& k, const CsrMatrix& m, std::size_t n_modes,
                         const SparseEigenOptions& opts, const ShiftedFactorization* cached) {
  static thread_local obs::CounterHandle solves{"numeric.eigen.sparse_solves"};
  static thread_local obs::CounterHandle sweeps{"numeric.eigen.subspace_iterations"};
  obs::ScopedTimer span("numeric.eigen_sparse");
  solves.add();
  const std::size_t n = k.rows();
  if (sparse_eigen_exact_pass(n, n_modes)) {
    sweeps.add();
    const EigenResult full = eigen_generalized(k.to_dense(), m.to_dense());
    return leading_pairs(full.eigenvalues, full.eigenvectors.data(), n, n, n_modes);
  }
  const std::size_t q = subspace_width(n, n_modes);
  if (cached) return run_subspace_iteration(k, m, n_modes, q, *cached);
  return run_subspace_iteration(k, m, n_modes, q, factorize_shift_invert(k, m, opts));
}

}  // namespace

// A subspace with 5q > n takes one exact Rayleigh-Ritz pass on the identity
// block, the dense generalized solve with no factorization: from 2q > n a
// generic start block leaves Y^T M Y numerically singular, and short of
// n = 5q iterating cost up to 1.3x the dense solve on plate pencils (a
// 96-DOF board at 12 modes, q = 24).
bool sparse_eigen_exact_pass(std::size_t n, std::size_t n_modes) {
  return 5 * subspace_width(n, n_modes) > n;
}

EigenResult eigen_generalized_sparse(const CsrMatrix& k, const CsrMatrix& m,
                                     std::size_t n_modes, const SparseEigenOptions& opts) {
  check_sparse_eigen_shapes(k, m, n_modes);
  return lowest_pairs(k, m, n_modes, opts, nullptr);
}

EigenResult eigen_generalized_sparse(const CsrMatrix& k, const CsrMatrix& m,
                                     std::size_t n_modes, const SparseEigenOptions& opts,
                                     const ShiftedFactorization& op) {
  check_sparse_eigen_shapes(k, m, n_modes);
  if (op.matrix.rows() != k.rows() || op.matrix.cols() != k.cols())
    throw std::invalid_argument(
        "eigen_generalized_sparse: shifted factorization does not match the pencil size");
  return lowest_pairs(k, m, n_modes, opts, &op);
}

Vector natural_frequencies_hz(const Vector& eigenvalues) {
  double lam_max = 0.0;
  for (const double lam : eigenvalues) lam_max = std::max(lam_max, lam);
  const double zero_tol = 1e-8 * std::max(lam_max, 1.0);
  Vector f(eigenvalues.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double lam = eigenvalues[i];
    if (lam < -zero_tol)
      throw std::domain_error(
          "natural_frequencies_hz: negative eigenvalue (indefinite stiffness/mass pencil)");
    f[i] = std::sqrt(std::max(lam, 0.0)) / (2.0 * std::numbers::pi);
  }
  return f;
}

Vector natural_frequencies_hz(const EigenResult& modes) {
  return natural_frequencies_hz(modes.eigenvalues);
}

}  // namespace aeropack::numeric
