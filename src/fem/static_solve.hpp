// The one static path of the FEM models: FrameModel, Frame3D and PlateModel
// solve their reduced (free-DOF) stiffness systems here, so every static
// solve is a skyline Cholesky with the same CG fallback.
#pragma once

#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::fem {

/// Solve K u = f for the reduced stiffness K (sparse, symmetric positive
/// definite): one skyline Cholesky, or Jacobi-CG to 1e-12 when the envelope
/// is over the skyline budget. Throws std::domain_error when K is not
/// positive definite (an unrestrained model) and std::runtime_error, naming
/// `who`, when the CG fallback does not converge.
numeric::Vector solve_reduced_static(const numeric::CsrMatrix& k, const numeric::Vector& f,
                                     const char* who);

}  // namespace aeropack::fem
