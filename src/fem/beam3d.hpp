// 3-D space-frame element: axial + torsion + biaxial bending, 12 DOF
// (ux, uy, uz, rx, ry, rz per node). Completes the "ANSYS substrate" for
// equipment brackets and chassis frames that bend out of plane — the Ariane
// navigation unit's mounting truss is inherently three-dimensional.
#pragma once

#include "fem/dof_map.hpp"
#include "fem/modal.hpp"
#include "materials/solid.hpp"
#include "numeric/dense.hpp"
#include "numeric/eigen.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::fem {

/// Cross-section for the space frame element.
struct Section3D {
  double area = 0.0;       ///< [m^2]
  double iy = 0.0;         ///< second moment about local y [m^4]
  double iz = 0.0;         ///< second moment about local z [m^4]
  double j = 0.0;          ///< torsion constant [m^4]

  static Section3D rectangle(double width, double height);
  static Section3D rod(double diameter);
  static Section3D tube(double outer_diameter, double wall_thickness);
};

/// Local 12x12 stiffness matrix (DOF order per node: ux uy uz rx ry rz).
numeric::Matrix beam3d_stiffness_local(const materials::SolidMaterial& m, const Section3D& s,
                                       double length);

/// Local 12x12 consistent mass matrix (rotary inertia of bending neglected,
/// torsional inertia included via the polar moment).
numeric::Matrix beam3d_mass_local(const materials::SolidMaterial& m, const Section3D& s,
                                  double length);

/// 12x12 transformation for an element from node1 to node2 with an optional
/// reference vector fixing the local-y orientation (defaults to global z,
/// or global y for near-vertical members).
numeric::Matrix beam3d_transformation(double x1, double y1, double z1, double x2, double y2,
                                      double z2);

/// Minimal 3-D frame model: nodes, beams, lumped masses, fixed DOFs.
class Frame3D {
 public:
  std::size_t add_node(double x, double y, double z);
  void add_beam(std::size_t n1, std::size_t n2, const materials::SolidMaterial& m,
                const Section3D& s);
  void add_mass(std::size_t node, double mass);
  void fix_all(std::size_t node);
  void fix(std::size_t node, std::size_t dof);  ///< dof 0..5

  std::size_t node_count() const { return coords_.size(); }
  std::size_t dof_count() const { return coords_.size() * 6; }
  std::size_t global_dof(std::size_t node, std::size_t dof) const;

  /// Static displacement under a full-DOF load vector.
  numeric::Vector solve_static(const numeric::Vector& loads) const;
  /// Natural frequencies [Hz], ascending. `opts` bounds the returned mode
  /// count (default: the lowest min(16, free DOFs); see fem/modal.hpp).
  numeric::Vector natural_frequencies(const ModalOptions& opts = {}) const;

  /// Constraint map built from fix()/fix_all() calls.
  DofMap dof_map() const;
  /// Reduced (free-DOF) sparse stiffness/mass pencil; the mass diagonal is
  /// already guarded against massless DOFs (see fem/modal.hpp).
  void reduced_sparse(numeric::CsrMatrix& k, numeric::CsrMatrix& m) const;
  /// Peak axial+bending von-Mises-ish stress in each beam for a static
  /// solution (outer-fiber bending + axial). [Pa]
  numeric::Vector beam_stresses(const numeric::Vector& displacements) const;

 private:
  struct Coord {
    double x, y, z;
  };
  struct Beam {
    std::size_t n1, n2;
    materials::SolidMaterial mat;
    Section3D section;
  };
  /// Scatter all elements into sparse assemblers, dropping the DOFs `map`
  /// fixes.
  void assemble_csr(const DofMap& map, numeric::CsrMatrix& k, numeric::CsrMatrix& m) const;
  void check_node(std::size_t n) const;

  std::vector<Coord> coords_;
  std::vector<Beam> beams_;
  std::vector<std::pair<std::size_t, double>> masses_;
  std::vector<bool> fixed_;
};

}  // namespace aeropack::fem
