// Structured 7-point stencil operator: the matrix of every finite-volume
// conduction solve, stored as coefficient planes instead of CSR.
//
// An FV operator on an nx × ny × nz tensor grid couples each cell only to
// its six face neighbours, and it is bitwise symmetric: both entries of a
// face hold the same -g. Three coupling planes — a(c, c+1), a(c, c+nx) and
// a(c, c+nx*ny) of every row c — plus the diagonal therefore describe it
// completely: 32 bytes per row, against about 110 for CSR with size_t
// column indices, and no index stream to gather through. Copies share the
// couplings (as CsrMatrix copies share their pattern) and own the diagonal,
// so the per-solve working copy a boundary rewrite edits costs n doubles.
//
// Bitwise contract: every row sums in CSR column order (-z, -y, -x, diag,
// +x, +y, +z) from an accumulator that starts at +0.0, so multiply() equals
// to_csr().multiply() bit for bit at any thread count. A missing y or z
// neighbour is read as a zero coupling times an in-array value of x. That
// product is ±0, and adding ±0 changes nothing: a round-to-nearest sum is
// -0.0 only when both addends are -0.0, so an accumulator that starts at
// +0.0 never becomes -0.0, and acc + (±0) == acc for every other value.
// (This needs x finite, as every CG iterate is.) The ±x neighbours at the
// two ends of a grid line are skipped, so no neighbour pointer is ever
// formed outside an array.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::numeric {

class StencilMatrix {
 public:
  StencilMatrix() = default;
  /// Operator on an nx × ny × nz grid, row c = i + nx (j + ny k). `cx`,
  /// `cy` and `cz` hold a(c, c+1), a(c, c+nx) and a(c, c+nx ny) of every
  /// row (n values each, exactly 0 where that neighbour is outside the
  /// grid); `diagonal` holds a(c, c). Throws std::invalid_argument on a zero
  /// dimension, a size mismatch or a nonzero coupling to a missing
  /// neighbour.
  StencilMatrix(std::size_t nx, std::size_t ny, std::size_t nz, Vector cx, Vector cy,
                Vector cz, Vector diagonal);

  std::size_t rows() const { return diag_.size(); }
  std::size_t cols() const { return diag_.size(); }
  /// Stored entries of the equivalent CSR matrix: the 7-point count.
  std::size_t nonzeros() const;
  /// Approximate resident size (planes, diagonal and zero line), for
  /// cost-aware cache eviction.
  std::size_t cost_bytes() const;

  /// The diagonal plane. Each copy owns its own; the couplings are shared.
  const Vector& diagonal() const { return diag_; }
  Vector& diagonal() { return diag_; }
  /// Coupling planes: a(c, c+1), a(c, c+nx), a(c, c+nx ny) per row.
  const Vector& coupling_x() const { return c_->x; }
  const Vector& coupling_y() const { return c_->y; }
  const Vector& coupling_z() const { return c_->z; }

  /// y = A x (y resized to rows(); must not alias x). Row-partitioned
  /// across the calling thread's current pool; counts one
  /// "numeric.spmv.calls".
  Vector multiply(const Vector& x) const;
  void multiply(const Vector& x, Vector& y) const;

  /// y = A x and returns <x, y>: one sweep per fixed reduction chunk
  /// (kReductionChunk rows), each chunk's partial summed like parallel_dot,
  /// so the pair is bitwise equal to multiply() then parallel_dot(x, y).
  /// Counts one "numeric.spmv.calls".
  double multiply_dot(const Vector& x, Vector& y) const;

  /// fn(c, (A x)_c) for every row c in [lo, hi), in row order, on the
  /// calling thread. The row sweep of fused kernels (multigrid smoothing
  /// and residuals): callers partition rows and must not write x.
  template <typename RowFn>
  void for_each_row(std::size_t lo, std::size_t hi, const Vector& x, RowFn&& fn) const;

  /// The same operator as CSR, columns sorted (FEM-style consumers, tests).
  CsrMatrix to_csr() const;

 private:
  struct Couplings {
    std::size_t nx = 0, ny = 0, nz = 0;
    Vector x, y, z;
    Vector zeros;  ///< one grid line of zero couplings (missing y/z neighbours)
  };
  std::shared_ptr<const Couplings> c_ = std::make_shared<const Couplings>();
  Vector diag_;
};

template <typename RowFn>
void StencilMatrix::for_each_row(std::size_t lo, std::size_t hi, const Vector& x,
                                 RowFn&& fn) const {
  const Couplings& s = *c_;
  const std::size_t nx = s.nx, ny = s.ny, nz = s.nz, sxy = nx * ny;
  std::size_t c = lo;
  while (c < hi) {
    // One segment [c, end) of the grid line that starts at `base`.
    const std::size_t base = c - c % nx;
    const std::size_t line = base / nx;
    const std::size_t j = line % ny, k = line / ny;
    const std::size_t end = base + nx < hi ? base + nx : hi;
    const double* xl = x.data() + base;
    const double* cxl = s.x.data() + base;
    const double* dl = diag_.data() + base;
    const double* zero = s.zeros.data();
    // A missing neighbour line: zero couplings times this line's values.
    const double* czm = k > 0 ? s.z.data() + (base - sxy) : zero;
    const double* xzm = k > 0 ? xl - sxy : xl;
    const double* cym = j > 0 ? s.y.data() + (base - nx) : zero;
    const double* xym = j > 0 ? xl - nx : xl;
    const double* cyp = j + 1 < ny ? s.y.data() + base : zero;
    const double* xyp = j + 1 < ny ? xl + nx : xl;
    const double* czp = k + 1 < nz ? s.z.data() + base : zero;
    const double* xzp = k + 1 < nz ? xl + sxy : xl;
    const auto row = [&](std::size_t i, auto has_xm, auto has_xp) {
      double acc = 0.0;
      acc += czm[i] * xzm[i];
      acc += cym[i] * xym[i];
      if constexpr (decltype(has_xm)::value) acc += cxl[i - 1] * xl[i - 1];
      acc += dl[i] * xl[i];
      if constexpr (decltype(has_xp)::value) acc += cxl[i] * xl[i + 1];
      acc += cyp[i] * xyp[i];
      acc += czp[i] * xzp[i];
      return acc;
    };
    constexpr std::true_type yes{};
    constexpr std::false_type no{};
    std::size_t i = c - base;
    const std::size_t ie = end - base;
    if (i == 0) {
      fn(base, nx > 1 ? row(0, no, yes) : row(0, no, no));
      ++i;
    }
    const std::size_t mid_end = ie < nx - 1 ? ie : nx - 1;
    for (; i < mid_end; ++i) fn(base + i, row(i, yes, yes));
    if (i < ie) fn(base + i, row(i, yes, no));  // i == nx - 1
    c = end;
  }
}

}  // namespace aeropack::numeric
