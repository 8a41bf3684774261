// Kirchhoff thin-plate bending FEM with the classic 12-DOF ACM rectangle
// (Adini-Clough-Melosh, non-conforming but convergent) — the workhorse for
// PCB modal placement studies (the paper's Ariane power supply is designed
// so that "its main resonant mode be located around 500 Hz").
//
// Element DOFs per corner node: (w, dw/dx, dw/dy).
#pragma once

#include <cstddef>
#include <vector>

#include "fem/dof_map.hpp"
#include "fem/modal.hpp"
#include "materials/solid.hpp"
#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::fem {

/// Flexural rigidity D = E h^3 / (12 (1 - nu^2)). [N m]
double plate_rigidity(const materials::SolidMaterial& m, double thickness);

/// 12x12 stiffness matrix of an a x b ACM rectangle with rigidity D and
/// Poisson ratio nu (origin at a corner, DOF order: node-major (w, wx, wy),
/// nodes CCW: (0,0), (a,0), (a,b), (0,b)).
numeric::Matrix acm_plate_stiffness(double a, double b, double d, double nu);

/// 12x12 consistent mass matrix; `mass_per_area` = rho * h [kg/m^2].
numeric::Matrix acm_plate_mass(double a, double b, double mass_per_area);

enum class EdgeSupport { Free, SimplySupported, Clamped };

struct PlateModalResult {
  numeric::Vector frequencies_hz;
  numeric::Matrix shapes;  ///< free-DOF shapes (column per mode)
  std::vector<std::size_t> free_to_full;
  numeric::Vector participation_factors;  ///< out-of-plane base excitation
  numeric::Vector effective_masses;
};

/// Rectangular PCB / panel meshed with nx x ny ACM elements.
class PlateModel {
 public:
  PlateModel(double length_x, double length_y, double thickness,
             const materials::SolidMaterial& material, std::size_t nx, std::size_t ny);

  /// Edge boundary conditions (default: all free).
  void set_edge(EdgeSupport support, bool x_min, bool x_max, bool y_min, bool y_max);
  /// Point support (wedge-lock / standoff): w = 0 at the node nearest (x, y).
  /// Throws std::invalid_argument for a point off the plate or non-finite.
  void add_point_support(double x, double y);
  /// Lumped component mass [kg] at the node nearest (x, y). Throws
  /// std::invalid_argument for a point off the plate or non-finite, or a
  /// mass that is not finite and positive.
  void add_point_mass(double x, double y, double mass);
  /// Uniform smeared non-structural mass [kg/m^2] (components, conformal coat).
  void add_smeared_mass(double mass_per_area);
  /// Local thickness multiplier in a rectangular region (stiffener/doubler):
  /// multiplies D by factor^3 and mass by factor.
  void add_doubler(double x0, double x1, double y0, double y1, double thickness_factor);

  std::size_t node_count() const { return (nx_ + 1) * (ny_ + 1); }
  std::size_t dof_count() const { return node_count() * 3; }
  std::size_t node_index(std::size_t i, std::size_t j) const { return i + (nx_ + 1) * j; }
  /// Node nearest a physical location.
  std::size_t nearest_node(double x, double y) const;

  /// Modal analysis on the free DOFs. `opts` bounds the returned mode count
  /// (default: the lowest min(16, free DOFs); see fem/modal.hpp).
  PlateModalResult solve_modal(const ModalOptions& opts = {}) const;

  /// Fundamental frequency [Hz].
  double fundamental_frequency() const;

  /// Constraint map from the edge supports and point supports.
  DofMap dof_map() const;
  /// Reduced (free-DOF) sparse stiffness/mass pencil.
  void reduced_sparse(numeric::CsrMatrix& k, numeric::CsrMatrix& m) const;

  /// Static deflection field under a uniform lateral pressure [Pa]
  /// (positive = +w): skyline Cholesky on the reduced stiffness, CG when
  /// its envelope is over budget. Returns the full-DOF displacement vector.
  numeric::Vector solve_static_pressure(double pressure) const;
  /// Peak |w| under a quasi-static `n_g` lateral acceleration acting on the
  /// plate's own (structural + smeared + point) mass. [m]
  double max_deflection_under_g(double n_g) const;

  /// Peak surface bending stress over all elements for a displacement field
  /// (from solve_static_pressure): sigma = 6 |M| / t^2 with M from the
  /// element-center curvatures. [Pa]
  double max_bending_stress(const numeric::Vector& displacements) const;

  double length_x() const { return lx_; }
  double length_y() const { return ly_; }
  double thickness() const { return thickness_; }
  /// Total mass including smeared & lumped masses. [kg]
  double total_mass() const;

 private:
  /// Scatter all plate elements and point masses into sparse assemblers,
  /// dropping the DOFs `map` fixes.
  void assemble_csr(const DofMap& map, numeric::CsrMatrix& k, numeric::CsrMatrix& m) const;

  double lx_, ly_, thickness_;
  materials::SolidMaterial material_;
  std::size_t nx_, ny_;
  std::vector<EdgeSupport> edge_ = std::vector<EdgeSupport>(4, EdgeSupport::Free);
  std::vector<std::size_t> point_supports_;
  std::vector<std::pair<std::size_t, double>> point_masses_;
  double smeared_mass_ = 0.0;
  struct Doubler {
    double x0, x1, y0, y1, factor;
  };
  std::vector<Doubler> doublers_;
};

/// Analytic natural frequency [Hz] of mode (m, n) of a simply-supported
/// rectangular plate — validation reference for the FEM.
double ss_plate_frequency(double a, double b, double thickness,
                          const materials::SolidMaterial& mat, int m, int n,
                          double extra_mass_per_area = 0.0);

}  // namespace aeropack::fem
