// Planar frame structural model: beams, lumped masses, grounded and
// inter-node springs, point constraints. Assembles the reduced sparse K / M
// pencil (the models this toolkit builds are small — equipment brackets,
// isolated chassis, card-edge supports), then exposes static, modal,
// harmonic and random-vibration analyses via the companion headers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fem/beam.hpp"
#include "fem/dof_map.hpp"
#include "fem/modal.hpp"
#include "materials/solid.hpp"
#include "numeric/dense.hpp"
#include "numeric/eigen.hpp"
#include "numeric/sparse.hpp"

namespace aeropack::fem {

enum class Dof : std::size_t { Ux = 0, Uy = 1, Rz = 2 };
constexpr std::size_t kDofPerNode = 3;

struct ModalResult {
  numeric::Vector frequencies_hz;        ///< ascending
  numeric::Matrix shapes;                ///< full-DOF mode shapes, column per mode
  numeric::Vector participation_factors; ///< base-excitation participation (given direction)
  numeric::Vector effective_masses;      ///< [kg] per mode, same direction
};

class FrameModel {
 public:
  /// Add a node at (x, y); returns its id.
  std::size_t add_node(double x, double y);
  /// Beam between two nodes. Uses the material's modulus and density.
  void add_beam(std::size_t n1, std::size_t n2, const materials::SolidMaterial& m,
                const BeamSection& s);
  /// Lumped mass [kg] (and optional rotary inertia [kg m^2]) at a node.
  void add_mass(std::size_t node, double mass, double rotary_inertia = 0.0);
  /// Grounded spring on one DOF [N/m] (or [N m/rad] for Rz).
  void add_ground_spring(std::size_t node, Dof dof, double stiffness);
  /// Spring between the same DOF of two nodes.
  void add_spring(std::size_t n1, std::size_t n2, Dof dof, double stiffness);
  /// Constrain a DOF to zero.
  void fix(std::size_t node, Dof dof);
  /// Constrain all three DOFs of a node.
  void fix_all(std::size_t node);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t dof_count() const { return nodes_.size() * kDofPerNode; }
  std::size_t free_dof_count() const;
  std::size_t global_dof(std::size_t node, Dof dof) const;

  /// Static solve under nodal loads (full-DOF load vector); returns the
  /// full-DOF displacement vector (zeros at fixed DOFs).
  numeric::Vector solve_static(const numeric::Vector& loads) const;

  /// Modal analysis. `excitation` is the unit base-acceleration direction
  /// used for participation factors (e.g. {1, 0} = x shake). `opts` bounds
  /// the returned mode count (default: the lowest min(16, free DOFs); see
  /// fem/modal.hpp).
  ModalResult solve_modal(double ex_x = 0.0, double ex_y = 1.0,
                          const ModalOptions& opts = {}) const;

  /// Constraint map built from fix()/fix_all() calls.
  DofMap dof_map() const;

  /// Reduced (free-DOF) matrices and the free->full index map, for the
  /// dynamics modules.
  void reduced_system(numeric::Matrix& k, numeric::Matrix& m,
                      std::vector<std::size_t>& free_to_full) const;

  /// Reduced (free-DOF) sparse stiffness/mass pencil; the mass diagonal is
  /// already guarded against massless DOFs (see fem/modal.hpp).
  void reduced_sparse(numeric::CsrMatrix& k, numeric::CsrMatrix& m) const;

  /// Rigid-body influence vector for unit base acceleration in (ax, ay):
  /// full-DOF vector with ax at every Ux, ay at every Uy.
  numeric::Vector influence_vector(double ax, double ay) const;

  /// Total translating mass (beams + lumped). [kg]
  double total_mass() const;

 private:
  struct Node {
    double x, y;
  };
  struct Beam {
    std::size_t n1, n2;
    double e, rho;
    BeamSection section;
  };
  struct PointMass {
    std::size_t node;
    double mass, inertia;
  };
  struct Spring {
    std::size_t n1;           // second node or npos for ground
    std::size_t n2;
    Dof dof;
    double k;
  };
  static constexpr std::size_t kGround = static_cast<std::size_t>(-1);

  void check_node(std::size_t n) const;
  /// Scatter all elements (beams, springs, lumped masses) into sparse
  /// assemblers, discarding the DOFs `map` fixes: the reduced pencil.
  void assemble_csr(const DofMap& map, numeric::CsrMatrix& k, numeric::CsrMatrix& m) const;

  std::vector<Node> nodes_;
  std::vector<Beam> beams_;
  std::vector<PointMass> masses_;
  std::vector<Spring> springs_;
  std::vector<bool> fixed_;  // per global DOF
};

}  // namespace aeropack::fem
