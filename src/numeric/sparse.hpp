// Sparse matrix support (triplet builder + CSR) and iterative Krylov solvers.
//
// The finite-volume thermal solver and the larger FEM meshes assemble into
// SparseBuilder, convert to CSR once, then solve with conjugate gradients.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/dense.hpp"

namespace aeropack::numeric {

class AmgWorkspace;
class CsrMatrix;
class StencilMatrix;

/// Coordinate-format accumulator; duplicate (i,j) entries are summed on
/// build, in the order they were added. build() orders the entries with two
/// stable counting passes (by column, then by row): O(entries + rows + cols),
/// no comparison sort.
class SparseBuilder {
 public:
  SparseBuilder(std::size_t rows, std::size_t cols);

  /// Pre-size the triplet buffer.
  void reserve(std::size_t entries) { entries_.reserve(entries); }

  void add(std::size_t i, std::size_t j, double v);
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t entry_count() const { return entries_.size(); }

  CsrMatrix build() const;

 private:
  struct Entry {
    std::size_t i, j;
    double v;
  };
  std::size_t rows_, cols_;
  std::vector<Entry> entries_;
};

/// Compressed sparse row matrix (immutable structure, mutable values).
///
/// Invariant (checked at construction): column indices are strictly
/// increasing within every row. SparseBuilder::build() guarantees this;
/// at() exploits it with a binary search.
///
/// The structure never changes after construction, so copies share it and
/// own only their values: a per-solve working copy of a cached FV assembly
/// costs one values array, not a second pattern.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
            std::vector<std::size_t> col_idx, std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// y = A x. Row-partitioned across the calling thread's current pool
  /// (see numeric/parallel.hpp); each row's accumulation order is fixed, so
  /// the result is identical for every thread count.
  Vector multiply(const Vector& x) const;
  /// y = A x without allocating (y is resized to rows()). y must not alias
  /// x: y is zeroed up front, before other threads' row chunks read x.
  void multiply(const Vector& x, Vector& y) const;
  /// Y = A X for q vectors held row-major: x[j * q + c] is entry j of
  /// column c, and y (resized to rows() * q) is laid out the same way. Each
  /// column is bitwise equal to multiply() on it alone, and the call counts
  /// as q SpMVs; one pass over A serves all q columns. Row-partitioned like
  /// multiply(). y must not alias x.
  void multiply_block(const std::vector<double>& x, std::vector<double>& y,
                      std::size_t q) const;
  /// Extract the diagonal (missing entries are 0).
  Vector diagonal() const;
  /// Max |a_ij - a_ji|; O(nnz log nnz) via lookup. For tests.
  double asymmetry() const;
  Matrix to_dense() const;

  const std::vector<std::size_t>& row_ptr() const { return pattern_->row_ptr; }
  const std::vector<std::size_t>& col_idx() const { return pattern_->col_idx; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// Value at (i, j), 0 if not stored.
  double at(std::size_t i, std::size_t j) const;

 private:
  struct Pattern {
    std::vector<std::size_t> row_ptr;
    std::vector<std::size_t> col_idx;
  };
  std::size_t rows_ = 0, cols_ = 0;
  std::shared_ptr<const Pattern> pattern_ = std::make_shared<const Pattern>();
  std::vector<double> values_;
};

/// c = a + alpha * b (structures merged row-wise; both operands must share
/// dimensions). Used to form the shifted operator K - sigma*M for the
/// shift-invert eigensolver without densifying.
CsrMatrix add_scaled(const CsrMatrix& a, double alpha, const CsrMatrix& b);

struct IterativeResult {
  Vector x;
  std::size_t iterations = 0;
  double residual = 0.0;  ///< final ||b - Ax|| / ||b||
  bool converged = false;
};

struct IterativeOptions {
  std::size_t max_iterations = 10000;
  double tolerance = 1e-10;  ///< relative residual target
};

/// Preconditioned conjugate gradient for SPD systems.
///
/// `x0` (optional) warm-starts the iteration; the Picard/transient loops of
/// the FV thermal solver pass the previous pass/step solution, cutting the
/// inner iteration count sharply. SpMV and all reductions run on the
/// parallel layer with deterministic chunked partial sums, so the returned
/// solution is bit-identical across thread counts — and across pools. It
/// runs on the calling thread's current pool.
///
/// With `amg` null this is the fused Jacobi-preconditioned loop. A non-null
/// AMG workspace (numeric/amg.hpp) is first refreshed from `a`, whose
/// off-diagonals must be those its hierarchy was built from, and then
/// preconditions a flexible (Polak–Ribière) CG with one multigrid cycle per
/// iteration; its inner K-cycle steps count as "numeric.amg.cycles", never
/// as "numeric.cg.*".
///
/// One loop serves both operator forms. The StencilMatrix overloads (every
/// FV solve) return the same bits as the CSR overloads on a.to_csr(), with
/// the same counters: the stencil only streams less memory per iteration.
IterativeResult conjugate_gradient(const CsrMatrix& a, const Vector& b,
                                   const IterativeOptions& opts = {},
                                   const Vector* x0 = nullptr, AmgWorkspace* amg = nullptr);
IterativeResult conjugate_gradient(const StencilMatrix& a, const Vector& b,
                                   const IterativeOptions& opts = {},
                                   const Vector* x0 = nullptr, AmgWorkspace* amg = nullptr);

}  // namespace aeropack::numeric
