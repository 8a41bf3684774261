// FV solver stress cases: the four steady conduction problems the
// multigrid-preconditioned CG (numeric/amg.hpp) is judged on, shared by the
// AMG determinism tests, the counter contract and the sparse-kernel ledger.
// Each stresses the coarsening differently: an isotropic cube, a cube with
// a tenfold conductivity grade, a thin anisotropic board, and an FR4 box on
// an aluminium floor with a TIM interface and a heat-pipe drain strip whose
// conductivity is ~10^5 times the laminate's.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "thermal/fv.hpp"

namespace aeropack::verify {

/// The fv_fine_steady benchmark problem at n^3: a 0.05 m aluminium cube,
/// 5 W uniform, XMin at 300 K and XMax at 320 K (n = 48 is the benchmark).
thermal::FvModel amg_slab_case(std::size_t n);

/// A 0.1 m cube whose conductivity grades from 20 to 200 W/m K along x,
/// 40 W uniform, XMin at 300 K and a 50 W/m^2 K film on ZMax (n = 40 in the
/// ledger).
thermal::FvModel amg_graded_cube_case(std::size_t n);

/// A 96 x 64 x 4 board, k = 30/30/0.4 W/m K, 10 W in a central footprint on
/// the top layer, 10 W/m^2 K films on both faces and one wedge-locked edge.
thermal::FvModel amg_thin_board_case();

/// A 40 x 32 x 16 FR4 box on a one-layer aluminium floor behind a TIM
/// (2e-4 K m^2/W), with a kx = 2e4 W/m K heat-pipe drain strip above the
/// TIM, 30 W in two components, floor at 300 K and the drain's far end
/// at 310 K.
thermal::FvModel amg_drain_box_case();

struct SolverCase {
  std::string name;
  thermal::FvModel model;
};

/// The four cases at their ledger sizes: slab 48^3, graded cube 40^3, thin
/// board, drain box.
std::vector<SolverCase> amg_cases();

}  // namespace aeropack::verify
