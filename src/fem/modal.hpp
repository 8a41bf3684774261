// Shared modal front-end for the FEM models: one entry point that takes the
// reduced (free-DOF) stiffness/mass pair in sparse form and returns its
// lowest modes from numeric::eigen_generalized_sparse. That solver picks
// its own method from the DOF count n and the subspace width q: when 5q > n
// it runs one exact Rayleigh-Ritz pass on the identity block (the dense
// generalized solve, Cholesky reduction plus Householder + QL, bit for
// bit), otherwise shift-invert subspace iteration. The exact pass is
// accurate to a few ulps of the largest eigenvalue, so on pencils whose
// stiffness spread is wide (long slender frames: 6e-9 relative on the
// fundamental of a 30-element cantilever) the iteration is the more
// accurate one for the lowest modes.
//
// All three structural models (FrameModel, Frame3D, PlateModel) route their
// modal solves through solve_reduced_modes, so the mode-count default and
// the massless-DOF handling live in exactly one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "numeric/dense.hpp"
#include "numeric/eigen.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::fem {

/// The one modal path, shift-invert with its exact small-pencil pass. Kept
/// only because aerobench's replay mirror (aerobench/src/replay.cpp) still
/// assigns ModalOptions::path; both go with that mirror.
enum class ModalPath { Sparse };

struct ModalOptions {
  /// Number of lowest modes to return, clamped to the free-DOF count n.
  /// 0 = the lowest min(16, n) (a full spectrum is never wanted).
  std::size_t n_modes = 0;
  /// Unread; see ModalPath.
  ModalPath path = ModalPath::Sparse;
  /// Spectral shift for the shift-invert solver (0 targets the lowest modes).
  double shift = 0.0;
};

struct ReducedModes {
  numeric::Vector eigenvalues;     ///< ascending, length = returned modes
  numeric::Vector frequencies_hz;  ///< sqrt(lambda)/2pi, zero-clamped noise
  numeric::Matrix shapes;          ///< free-DOF shapes, M-orthonormal columns
};

/// Lowest modes of K phi = lambda M phi on the reduced (free-DOF) pencil,
/// deterministic and bit-identical across thread counts.
ReducedModes solve_reduced_modes(const numeric::CsrMatrix& k, const numeric::CsrMatrix& m,
                                 const ModalOptions& opts = {});

/// True when solve_reduced_modes on a pencil of `free_dofs` DOFs iterates
/// and so reads a factorization; false when it takes the exact pass, where
/// a factorize_modal would build work nothing reads. The same rule the
/// solver applies (numeric::sparse_eigen_exact_pass after the n_modes
/// clamp), for callers that build and cache factorizations themselves.
bool modal_iterates(std::size_t free_dofs, const ModalOptions& opts);

/// The factorization half of a modal solve, split out as an immutable
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

/// Factor the shift-invert operator of the modal solve for `opts`.
/// Deterministic; bumps the same numeric.skyline/eigen counters an
/// iterating cold solve would.
ModalFactorization factorize_modal(const numeric::CsrMatrix& k, const numeric::CsrMatrix& m,
                                   const ModalOptions& opts = {});

/// Modal solve on a pre-built factorization of exactly this (K, M, opts)
/// pencil — bit-identical to the cold solve, with zero factorization work
/// (the cache-hit half of the split). The exact pass does not read it.
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
