// Shared modal front-end for the FEM models: one entry point that takes the
// reduced (free-DOF) stiffness/mass pair in sparse form and picks between
// the dense generalized eigensolver (Cholesky reduction, Householder + QL;
// small problems, exhaustive spectrum) and the sparse shift-invert subspace
// iteration (large problems; lowest modes). The sparse path solves any mode
// count up to the DOF count: when its subspace would exceed half the DOFs
// it runs one exact Rayleigh-Ritz pass on the identity block, which is the
// dense solve. The dense path is accurate to a few ulps of the largest
// eigenvalue, so on pencils whose stiffness spread is wide (long slender
// frames: 6e-9 relative on the fundamental of a 30-element cantilever) the
// shift-invert path is the more accurate one for the lowest modes.
//
// All three structural models (FrameModel, Frame3D, PlateModel) route their
// modal solves through solve_reduced_modes, so the dense/sparse crossover
// and the massless-DOF handling live in exactly one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "numeric/dense.hpp"
#include "numeric/eigen.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::fem {

enum class ModalPath {
  Auto,   ///< dense at or below ModalOptions::dense_threshold free DOFs
  Dense,  ///< force the dense generalized solve (full spectrum available)
  Sparse  ///< force shift-invert subspace iteration
};

struct ModalOptions {
  /// Number of lowest modes to return. 0 = all modes on the dense path,
  /// 16 on the sparse path (a full sparse spectrum is never wanted).
  std::size_t n_modes = 0;
  ModalPath path = ModalPath::Auto;
  /// Auto crossover: free-DOF counts at or below this use the dense solver.
  std::size_t dense_threshold = 360;
  /// Spectral shift for the sparse solver (0 targets the lowest modes).
  double shift = 0.0;
};

struct ReducedModes {
  numeric::Vector eigenvalues;     ///< ascending, length = returned modes
  numeric::Vector frequencies_hz;  ///< sqrt(lambda)/2pi, zero-clamped noise
  numeric::Matrix shapes;          ///< free-DOF shapes, M-orthonormal columns
  bool used_sparse = false;
};

/// Lowest modes of K phi = lambda M phi on the reduced (free-DOF) pencil.
/// The dense path densifies and solves the full spectrum (then truncates),
/// the sparse path runs shift-invert subspace iteration; both orderings are
/// deterministic and bit-identical across thread counts.
ReducedModes solve_reduced_modes(const numeric::CsrMatrix& k, const numeric::CsrMatrix& m,
                                 const ModalOptions& opts = {});

/// The factorization half of a sparse modal solve, split out as an immutable
/// artifact for core::ArtifactCache: building it does the skyline Cholesky
/// work; re-using it makes subsequent solve_reduced_modes calls pure
/// back-substitution + subspace iteration. Shareable across threads (solve
/// paths are const) and across models whose reduced pencils match.
struct ModalFactorization {
  std::shared_ptr<const numeric::ShiftedFactorization> op;
  std::size_t rows = 0;          ///< free-DOF count the operator was built for
  /// True when the resolved shift equals the requested one (no ladder
  /// retries). Only such factorizations may enter a cache under a key that
  /// does not hash M: at sigma == shift the factored matrix is exactly
  /// K - shift*M, and at shift == 0 it is K alone.
  bool ladder_free = false;
  double shift = 0.0;            ///< the requested spectral shift

  std::size_t cost_bytes() const;
};

/// Factor the shift-invert operator of the sparse modal path for `opts`
/// (ModalPath is ignored — the factorization only exists on the sparse
/// path). Deterministic; bumps the same numeric.skyline/eigen counters the
/// direct sparse solve would.
ModalFactorization factorize_modal(const numeric::CsrMatrix& k, const numeric::CsrMatrix& m,
                                   const ModalOptions& opts = {});

/// Sparse modal solve on a pre-built factorization of exactly this (K, M,
/// opts) pencil — bit-identical to the factorizing sparse path, with zero
/// factorization work (the cache-hit half of the split). Forces the sparse
/// path regardless of opts.path/dense_threshold.
/// Throws std::invalid_argument when `cached` does not match the pencil.
ReducedModes solve_reduced_modes(const numeric::CsrMatrix& k, const numeric::CsrMatrix& m,
                                 const ModalOptions& opts, const ModalFactorization& cached);

/// Replace non-positive diagonal entries of a reduced mass matrix with
/// `epsilon` (massless DOFs, e.g. a rotation carried only by springs, would
/// otherwise make M indefinite). The diagonal must be structurally present;
/// assemblers guarantee that by scattering explicit zeros on the diagonal.
/// Throws std::logic_error if a diagonal entry is structurally missing.
void clamp_massless_diagonal(numeric::CsrMatrix& m, double epsilon = 1e-9);

}  // namespace aeropack::fem
