#include "fem/frame.hpp"

#include <cmath>
#include <stdexcept>

#include "fem/static_solve.hpp"
#include "numeric/assembly.hpp"

namespace aeropack::fem {

using numeric::CsrMatrix;
using numeric::Matrix;
using numeric::SparseAssembler;
using numeric::Vector;

std::size_t FrameModel::add_node(double x, double y) {
  nodes_.push_back({x, y});
  fixed_.resize(nodes_.size() * kDofPerNode, false);
  return nodes_.size() - 1;
}

void FrameModel::check_node(std::size_t n) const {
  if (n >= nodes_.size()) throw std::out_of_range("FrameModel: bad node id");
}

void FrameModel::add_beam(std::size_t n1, std::size_t n2, const materials::SolidMaterial& m,
                          const BeamSection& s) {
  check_node(n1);
  check_node(n2);
  if (n1 == n2) throw std::invalid_argument("add_beam: zero-length beam");
  beams_.push_back({n1, n2, m.youngs_modulus, m.density, s});
}

void FrameModel::add_mass(std::size_t node, double mass, double rotary_inertia) {
  check_node(node);
  if (mass < 0.0 || rotary_inertia < 0.0) throw std::invalid_argument("add_mass: negative");
  masses_.push_back({node, mass, rotary_inertia});
}

void FrameModel::add_ground_spring(std::size_t node, Dof dof, double stiffness) {
  check_node(node);
  if (stiffness <= 0.0) throw std::invalid_argument("add_ground_spring: stiffness must be > 0");
  springs_.push_back({node, kGround, dof, stiffness});
}

void FrameModel::add_spring(std::size_t n1, std::size_t n2, Dof dof, double stiffness) {
  check_node(n1);
  check_node(n2);
  if (n1 == n2) throw std::invalid_argument("add_spring: same node");
  if (stiffness <= 0.0) throw std::invalid_argument("add_spring: stiffness must be > 0");
  springs_.push_back({n1, n2, dof, stiffness});
}

void FrameModel::fix(std::size_t node, Dof dof) {
  check_node(node);
  fixed_[global_dof(node, dof)] = true;
}

void FrameModel::fix_all(std::size_t node) {
  fix(node, Dof::Ux);
  fix(node, Dof::Uy);
  fix(node, Dof::Rz);
}

std::size_t FrameModel::global_dof(std::size_t node, Dof dof) const {
  check_node(node);
  return node * kDofPerNode + static_cast<std::size_t>(dof);
}

std::size_t FrameModel::free_dof_count() const {
  std::size_t n = 0;
  for (bool f : fixed_)
    if (!f) ++n;
  return n;
}

DofMap FrameModel::dof_map() const {
  if (dof_count() == 0) throw std::logic_error("FrameModel: empty model");
  DofMap map(dof_count());
  for (std::size_t i = 0; i < fixed_.size(); ++i)
    if (fixed_[i]) map.fix(i);
  if (map.free_count() == 0) throw std::logic_error("FrameModel: all DOFs fixed");
  return map;
}

void FrameModel::assemble_csr(const DofMap& map, CsrMatrix& k, CsrMatrix& m) const {
  const std::size_t n = map.free_count();
  SparseAssembler ka(n, n), ma(n, n);
  ka.reserve(36 * beams_.size() + 4 * springs_.size() + n);
  ma.reserve(36 * beams_.size() + 3 * masses_.size() + n);

  std::vector<std::size_t> dofs(6);
  for (const Beam& b : beams_) {
    const double dx = nodes_[b.n2].x - nodes_[b.n1].x;
    const double dy = nodes_[b.n2].y - nodes_[b.n1].y;
    const double l = std::hypot(dx, dy);
    const double angle = std::atan2(dy, dx);
    const Matrix t = beam_transformation(angle);
    const Matrix ke = t.transposed() * beam_stiffness_local(b.e, b.section, l) * t;
    const Matrix me = t.transposed() * beam_mass_local(b.rho, b.section, l) * t;
    dofs = {global_dof(b.n1, Dof::Ux), global_dof(b.n1, Dof::Uy), global_dof(b.n1, Dof::Rz),
            global_dof(b.n2, Dof::Ux), global_dof(b.n2, Dof::Uy), global_dof(b.n2, Dof::Rz)};
    dofs = map.map_dofs(dofs);
    ka.scatter(dofs, ke);
    ma.scatter(dofs, me);
  }
  for (const Spring& s : springs_) {
    const std::size_t a = map.to_free(global_dof(s.n1, s.dof));
    if (s.n2 == kGround) {
      if (a != DofMap::kFixed) ka.add(a, a, s.k);
    } else {
      const std::size_t b = map.to_free(global_dof(s.n2, s.dof));
      if (a != DofMap::kFixed) ka.add(a, a, s.k);
      if (b != DofMap::kFixed) ka.add(b, b, s.k);
      if (a != DofMap::kFixed && b != DofMap::kFixed) {
        ka.add(a, b, -s.k);
        ka.add(b, a, -s.k);
      }
    }
  }
  for (const PointMass& pm : masses_) {
    const std::size_t ux = map.to_free(global_dof(pm.node, Dof::Ux));
    const std::size_t uy = map.to_free(global_dof(pm.node, Dof::Uy));
    const std::size_t rz = map.to_free(global_dof(pm.node, Dof::Rz));
    if (ux != DofMap::kFixed) ma.add(ux, ux, pm.mass);
    if (uy != DofMap::kFixed) ma.add(uy, uy, pm.mass);
    if (rz != DofMap::kFixed) ma.add(rz, rz, pm.inertia);
  }
  // Explicit structural diagonal (zero-valued, so sums are unchanged): the
  // massless-DOF guard and the skyline factorization need every diagonal
  // entry present even when no element touches it.
  for (std::size_t i = 0; i < n; ++i) {
    ka.add(i, i, 0.0);
    ma.add(i, i, 0.0);
  }
  k = ka.finalize();
  m = ma.finalize();
}

void FrameModel::reduced_sparse(CsrMatrix& k, CsrMatrix& m) const {
  const DofMap map = dof_map();
  assemble_csr(map, k, m);
  // Guard against massless DOFs (e.g. rotation of a node carried only by
  // springs): add a tiny inertia so M stays positive definite.
  clamp_massless_diagonal(m);
}

void FrameModel::reduced_system(Matrix& k, Matrix& m,
                                std::vector<std::size_t>& free_to_full) const {
  const DofMap map = dof_map();
  free_to_full = map.free_to_full();
  CsrMatrix ks, ms;
  reduced_sparse(ks, ms);
  k = ks.to_dense();
  m = ms.to_dense();
}

Vector FrameModel::solve_static(const Vector& loads) const {
  if (loads.size() != dof_count()) throw std::invalid_argument("solve_static: load size");
  const DofMap dmap = dof_map();
  CsrMatrix k, m;
  assemble_csr(dmap, k, m);
  return dmap.expand(solve_reduced_static(k, dmap.reduce(loads), "FrameModel::solve_static"));
}

Vector FrameModel::influence_vector(double ax, double ay) const {
  Vector r(dof_count(), 0.0);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    r[global_dof(n, Dof::Ux)] = ax;
    r[global_dof(n, Dof::Uy)] = ay;
  }
  return r;
}

double FrameModel::total_mass() const {
  double m = 0.0;
  for (const Beam& b : beams_) {
    const double dx = nodes_[b.n2].x - nodes_[b.n1].x;
    const double dy = nodes_[b.n2].y - nodes_[b.n1].y;
    m += b.rho * b.section.area * std::hypot(dx, dy);
  }
  for (const PointMass& pm : masses_) m += pm.mass;
  return m;
}

ModalResult FrameModel::solve_modal(double ex_x, double ex_y, const ModalOptions& opts) const {
  const DofMap dmap = dof_map();
  CsrMatrix k, m;
  reduced_sparse(k, m);
  const ReducedModes modes = solve_reduced_modes(k, m, opts);
  const std::vector<std::size_t>& map = dmap.free_to_full();
  const std::size_t nr = map.size();
  const std::size_t nm = modes.eigenvalues.size();

  ModalResult res;
  res.frequencies_hz = modes.frequencies_hz;
  res.shapes = Matrix(dof_count(), nm);
  for (std::size_t j = 0; j < nm; ++j)
    for (std::size_t i = 0; i < nr; ++i) res.shapes(map[i], j) = modes.shapes(i, j);

  // Participation factors: gamma_j = phi_j^T M r (phi M-orthonormal).
  const Vector r = dmap.reduce(influence_vector(ex_x, ex_y));
  const Vector mr = m.multiply(r);
  res.participation_factors.resize(nm);
  res.effective_masses.resize(nm);
  for (std::size_t j = 0; j < nm; ++j) {
    double gamma = 0.0;
    for (std::size_t i = 0; i < nr; ++i) gamma += modes.shapes(i, j) * mr[i];
    res.participation_factors[j] = gamma;
    res.effective_masses[j] = gamma * gamma;  // phi M-orthonormal => m_eff = gamma^2
  }
  return res;
}

}  // namespace aeropack::fem
