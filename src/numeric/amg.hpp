// Aggregation-based algebraic multigrid (AMG) preconditioner for large SPD
// conduction systems (Notay, ETNA 37, 2010; Briggs, Henson & McCormick, "A
// Multigrid Tutorial").
//
// Setup (AmgHierarchy, once per operator structure, serial and
// deterministic): each level runs three pairwise-matching passes over the
// off-diagonal couplings, for aggregates of about 8 rows, until the coarsest
// level has at most kAmgCoarsestRows rows. Prolongation is piecewise
// constant, so each coarse operator is the sum of the finer couplings
// between two aggregates (one marker-array Galerkin pass per product).
// The hierarchy reads only off-diagonals: a coarse diagonal is a fixed
// intra-aggregate coupling sum plus the per-aggregate sum of the finer
// diagonal, so a boundary rewrite that moves only the fine diagonal is
// absorbed by an O(n) refresh (AmgWorkspace::refresh) — the hierarchy
// itself is immutable and shareable across concurrent solves.
//
// The fine level is either operator form: a CsrMatrix, or the StencilMatrix
// every FV solve runs on, whose hierarchy is set up from a temporary
// to_csr() and whose cycles sweep the coefficient planes directly.
//
// Cycle (AmgWorkspace::apply): one damped-Jacobi sweep before and after the
// coarse correction, restriction as a per-aggregate gather in fixed member
// order, a K-cycle on every coarse level (two flexible-CG steps
// preconditioned by the next level) and a SkylineCholesky solve on the
// coarsest. Every reduction is a deterministic chunked dot and every other
// kernel is elementwise or row-wise, so preconditioned solves are
// bit-identical for any thread count. numeric::conjugate_gradient drives it
// as the preconditioner of a flexible (Polak–Ribière) CG.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"
#include "numeric/sparse_cholesky.hpp"

namespace aeropack::numeric {

class StencilMatrix;

/// Coarsening stops once a level has at most this many rows; that level is
/// solved directly.
inline constexpr std::size_t kAmgCoarsestRows = 256;

/// Immutable multigrid hierarchy built from the off-diagonal couplings of an
/// SPD matrix (its diagonal is never read). Counts one "numeric.amg.setups"
/// and times the "numeric.amg.setup" span.
class AmgHierarchy {
 public:
  explicit AmgHierarchy(const CsrMatrix& a);
  /// Same hierarchy as from a.to_csr(), which it is built from.
  explicit AmgHierarchy(const StencilMatrix& a);

  /// Levels including the fine one (1 when `a` is already coarse enough).
  std::size_t levels() const { return coarse_.size() + 1; }
  /// Rows of `level` (0 = the fine matrix).
  std::size_t rows(std::size_t level) const;
  /// Approximate resident size, for cost-aware cache eviction.
  std::size_t cost_bytes() const;

 private:
  friend class AmgWorkspace;
  /// One coarse level, built from the next finer one.
  struct Level {
    std::vector<std::size_t> agg;         ///< finer row -> aggregate (this level's row)
    std::vector<std::size_t> member_ptr;  ///< aggregate -> [begin, end) into members
    std::vector<std::size_t> members;     ///< finer rows of each aggregate, ascending
    std::vector<std::size_t> row_ptr;     ///< off-diagonal Galerkin operator (CSR,
    std::vector<std::size_t> col;         ///< sorted columns, no diagonal entry)
    std::vector<double> val;
    std::vector<double> diag_fixed;       ///< intra-aggregate coupling sum per row
  };
  std::size_t fine_rows_ = 0;
  std::size_t fine_nonzeros_ = 0;
  std::vector<std::size_t> fine_diag_;  ///< offset of each fine row's diagonal entry
  std::vector<Level> coarse_;
};

/// Per-solve state of an AMG-preconditioned solve: coarse diagonals, the
/// coarsest factor and the cycle vectors — never a copy of a coarse
/// operator. The hierarchy must outlive the workspace. One workspace serves
/// one solve at a time.
class AmgWorkspace {
 public:
  explicit AmgWorkspace(const AmgHierarchy& hierarchy);

  /// Re-derive the per-solve state from `a`, whose off-diagonals must be the
  /// ones the hierarchy was built from (only the diagonal may differ): the
  /// smoother's inverse diagonals, every coarse diagonal and the coarsest
  /// factor. O(n); times the "numeric.amg.refresh" span. Throws
  /// std::invalid_argument on a size mismatch, std::domain_error if a
  /// diagonal is not positive.
  void refresh(const CsrMatrix& a);
  void refresh(const StencilMatrix& a);

  /// Fine-level damped-Jacobi scale, omega / diag, of the last refresh().
  const Vector& smoothing() const { return levels_.front().smooth; }

  /// z = B r, one fine-level cycle (the preconditioner application of the
  /// outer flexible CG) on the matrix of the last refresh(). `x` must hold
  /// the fine pre-smoothing sweep smoothing() ∘ r on entry — the outer CG
  /// folds it into its residual update (cg_fused_update) — and is used as
  /// the cycle's iterate. z must alias neither r nor x
  /// (std::invalid_argument).
  void apply(const CsrMatrix& a, const Vector& r, Vector& x, Vector& z);
  void apply(const StencilMatrix& a, const Vector& r, Vector& x, Vector& z);

  /// Sum of every entry of the refreshed matrix, 1^T A 1: the net coupling
  /// of the whole domain to its sinks in an FV system. Read exactly off the
  /// coarsest Galerkin operator, whose entries sum to the same value.
  double total_coupling() const { return total_coupling_; }

  /// Level cycles run since construction: one per apply() plus one per inner
  /// K-cycle step on every coarse level.
  std::uint64_t cycles() const { return cycles_; }

 private:
  /// Vectors a level needs; the fine level keeps only its smoothing scale
  /// (its diagonal is read from the matrix, its iterate is the caller's) and
  /// the coarsest keeps no cycle vectors.
  struct LevelState {
    Vector diag;            ///< operator diagonal (coarse levels)
    Vector smooth;          ///< omega / diag (damped-Jacobi scale)
    Vector rhs, sol;        ///< restricted residual in, correction out
    Vector x;               ///< smoothed iterate inside a coarse level cycle
    Vector c, v, r2, d, w;  ///< K-cycle vectors
  };
  /// One level's operator for a row sweep (defined in amg.cpp).
  struct LevelOp;
  /// fn(i, (A x)_i) for every row of `op`, row-partitioned across the
  /// current pool.
  template <typename RowFn>
  static void for_each_row(const LevelOp& op, const Vector& x, RowFn&& fn);
  /// Smoother scales and coarse diagonals from the fine diagonal, then the
  /// coarsest factor (`fine` is the fine matrix itself, read only when it
  /// is the one level).
  void refresh_levels(const Vector& fine_diag, const CsrMatrix& fine);
  /// Shape checks, then z = B r through the fine level `fine`.
  void apply_fine(const LevelOp& fine, std::size_t rows, const Vector& r, Vector& x,
                  Vector& z);
  /// z = B_l r at `level` (`fine` is the level-0 operator, null below),
  /// with x = smoothing ∘ r already in place.
  void cycle(std::size_t level, const LevelOp* fine, const Vector& r, Vector& x, Vector& z);
  /// Pre-smooth r into the coarse level's iterate, then cycle().
  void presmoothed_cycle(std::size_t level, const Vector& r, Vector& z);
  /// sol = K-cycle approximation of A_l^-1 rhs at a coarse `level`.
  void kcycle(std::size_t level);

  const AmgHierarchy* h_;
  std::vector<LevelState> levels_;
  std::optional<SkylineCholesky> coarsest_;
  double total_coupling_ = 0.0;
  std::uint64_t cycles_ = 0;
};

}  // namespace aeropack::numeric
