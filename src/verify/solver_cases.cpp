#include "verify/solver_cases.hpp"

#include "materials/solid.hpp"

namespace aeropack::verify {

using thermal::BoundaryCondition;
using thermal::CellRange;
using thermal::Face;
using thermal::FvGrid;
using thermal::FvModel;

FvModel amg_slab_case(std::size_t n) {
  FvModel m(FvGrid::uniform(0.05, 0.05, 0.05, n, n, n));
  m.set_material(materials::aluminum_6061());
  m.add_power(m.all_cells(), 5.0);
  m.set_boundary(Face::XMin, BoundaryCondition::fixed(300.0));
  m.set_boundary(Face::XMax, BoundaryCondition::fixed(320.0));
  return m;
}

FvModel amg_graded_cube_case(std::size_t n) {
  FvModel m(FvGrid::uniform(0.1, 0.1, 0.1, n, n, n));
  m.set_material(materials::aluminum_6061());
  for (std::size_t i = 0; i < n; ++i) {
    const double k = 20.0 + 180.0 * m.grid().x_center(i) / 0.1;
    m.set_conductivity({i, i + 1, 0, n, 0, n}, k, k, k);
  }
  m.add_power(m.all_cells(), 40.0);
  m.set_boundary(Face::XMin, BoundaryCondition::fixed(300.0));
  m.set_boundary(Face::ZMax, BoundaryCondition::convection(50.0, 300.0));
  return m;
}

FvModel amg_thin_board_case() {
  const std::size_t nx = 96, ny = 64, nz = 4;
  FvModel m(FvGrid::uniform(0.16, 0.10, 1.6e-3, nx, ny, nz));
  m.set_material(materials::fr4());
  m.set_conductivity(m.all_cells(), 30.0, 30.0, 0.4);
  m.add_power({40, 56, 24, 40, nz - 1, nz}, 10.0);
  m.set_boundary(Face::ZMin, BoundaryCondition::convection(10.0, 300.0));
  m.set_boundary(Face::ZMax, BoundaryCondition::convection(10.0, 300.0));
  m.set_boundary(Face::XMin, BoundaryCondition::fixed(300.0));
  return m;
}

FvModel amg_drain_box_case() {
  const std::size_t nx = 40, ny = 32, nz = 16;
  FvModel m(FvGrid::uniform(0.20, 0.16, 0.08, nx, ny, nz));
  m.set_material(materials::fr4());
  m.set_material({0, nx, 0, ny, 0, 1}, materials::aluminum_6061());
  m.add_interface_z(0, 2e-4);
  m.set_conductivity({0, nx, 14, 18, 1, 2}, 2e4, 400.0, 400.0);
  m.add_power({8, 14, 10, 16, 4, 8}, 18.0);
  m.add_power({24, 30, 18, 24, 6, 10}, 12.0);
  m.set_boundary(Face::ZMin, BoundaryCondition::fixed(300.0));
  m.set_boundary_patch(Face::XMax, {0, 0, 14, 18, 1, 2}, BoundaryCondition::fixed(310.0));
  return m;
}

std::vector<SolverCase> amg_cases() {
  std::vector<SolverCase> cases;
  cases.push_back({"slab_48", amg_slab_case(48)});
  cases.push_back({"graded_cube_40", amg_graded_cube_case(40)});
  cases.push_back({"thin_board", amg_thin_board_case()});
  cases.push_back({"drain_box", amg_drain_box_case()});
  return cases;
}

}  // namespace aeropack::verify
