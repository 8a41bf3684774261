#include "fem/beam3d.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fem/static_solve.hpp"
#include "numeric/assembly.hpp"

namespace aeropack::fem {

using numeric::CsrMatrix;
using numeric::Matrix;
using numeric::SparseAssembler;
using numeric::Vector;

Section3D Section3D::rectangle(double width, double height) {
  if (width <= 0.0 || height <= 0.0)
    throw std::invalid_argument("Section3D::rectangle: non-positive dimension");
  Section3D s;
  s.area = width * height;
  s.iz = width * height * height * height / 12.0;  // bending in the height direction
  s.iy = height * width * width * width / 12.0;
  // Saint-Venant torsion constant for a rectangle (a >= b):
  const double a = std::max(width, height), b = std::min(width, height);
  s.j = a * b * b * b * (1.0 / 3.0 - 0.21 * (b / a) * (1.0 - std::pow(b / a, 4.0) / 12.0));
  return s;
}

Section3D Section3D::rod(double diameter) {
  if (diameter <= 0.0) throw std::invalid_argument("Section3D::rod: diameter");
  Section3D s;
  const double r = 0.5 * diameter;
  const double pi = std::numbers::pi;
  s.area = pi * r * r;
  s.iy = s.iz = 0.25 * pi * r * r * r * r;
  s.j = 0.5 * pi * r * r * r * r;
  return s;
}

Section3D Section3D::tube(double outer_diameter, double wall_thickness) {
  if (outer_diameter <= 0.0 || wall_thickness <= 0.0 ||
      2.0 * wall_thickness >= outer_diameter)
    throw std::invalid_argument("Section3D::tube: invalid dimensions");
  Section3D s;
  const double ro = 0.5 * outer_diameter, ri = ro - wall_thickness;
  const double pi = std::numbers::pi;
  s.area = pi * (ro * ro - ri * ri);
  s.iy = s.iz = 0.25 * pi * (std::pow(ro, 4.0) - std::pow(ri, 4.0));
  s.j = 2.0 * s.iy;
  return s;
}

namespace {

/// Add the 4x4 plane-bending stiffness block into k at DOFs (t1, r1, t2, r2)
/// with rotation sign `sgn` (+1 for the x-y plane / Iz, -1 for x-z / Iy).
void add_bending(Matrix& k, double ei, double l, std::size_t t1, std::size_t r1,
                 std::size_t t2, std::size_t r2, double sgn) {
  const double l2 = l * l, l3 = l2 * l;
  const double a = 12.0 * ei / l3;
  const double b = 6.0 * ei / l2 * sgn;
  const double c = 4.0 * ei / l;
  const double d = 2.0 * ei / l;
  k(t1, t1) += a;
  k(t1, r1) += b;
  k(t1, t2) += -a;
  k(t1, r2) += b;
  k(r1, t1) += b;
  k(r1, r1) += c;
  k(r1, t2) += -b;
  k(r1, r2) += d;
  k(t2, t1) += -a;
  k(t2, r1) += -b;
  k(t2, t2) += a;
  k(t2, r2) += -b;
  k(r2, t1) += b;
  k(r2, r1) += d;
  k(r2, t2) += -b;
  k(r2, r2) += c;
}

void add_bending_mass(Matrix& m, double rho_al, double l, std::size_t t1, std::size_t r1,
                      std::size_t t2, std::size_t r2, double sgn) {
  const double c = rho_al / 420.0;
  const double l2 = l * l;
  m(t1, t1) += 156.0 * c;
  m(t1, r1) += 22.0 * l * c * sgn;
  m(t1, t2) += 54.0 * c;
  m(t1, r2) += -13.0 * l * c * sgn;
  m(r1, t1) += 22.0 * l * c * sgn;
  m(r1, r1) += 4.0 * l2 * c;
  m(r1, t2) += 13.0 * l * c * sgn;
  m(r1, r2) += -3.0 * l2 * c;
  m(t2, t1) += 54.0 * c;
  m(t2, r1) += 13.0 * l * c * sgn;
  m(t2, t2) += 156.0 * c;
  m(t2, r2) += -22.0 * l * c * sgn;
  m(r2, t1) += -13.0 * l * c * sgn;
  m(r2, r1) += -3.0 * l2 * c;
  m(r2, t2) += -22.0 * l * c * sgn;
  m(r2, r2) += 4.0 * l2 * c;
}

}  // namespace

Matrix beam3d_stiffness_local(const materials::SolidMaterial& mat, const Section3D& s,
                              double l) {
  if (l <= 0.0 || s.area <= 0.0 || s.iy <= 0.0 || s.iz <= 0.0 || s.j <= 0.0)
    throw std::invalid_argument("beam3d_stiffness_local: invalid parameters");
  const double e = mat.youngs_modulus;
  const double g = e / (2.0 * (1.0 + mat.poisson_ratio));
  Matrix k(12, 12);
  // Axial (ux: DOFs 0, 6).
  const double ea_l = e * s.area / l;
  k(0, 0) += ea_l;
  k(0, 6) += -ea_l;
  k(6, 0) += -ea_l;
  k(6, 6) += ea_l;
  // Torsion (rx: DOFs 3, 9).
  const double gj_l = g * s.j / l;
  k(3, 3) += gj_l;
  k(3, 9) += -gj_l;
  k(9, 3) += -gj_l;
  k(9, 9) += gj_l;
  // Bending in the x-y plane (uy, rz): Iz, DOFs 1, 5, 7, 11, sign +1.
  add_bending(k, e * s.iz, l, 1, 5, 7, 11, +1.0);
  // Bending in the x-z plane (uz, ry): Iy, DOFs 2, 4, 8, 10, sign -1.
  add_bending(k, e * s.iy, l, 2, 4, 8, 10, -1.0);
  return k;
}

Matrix beam3d_mass_local(const materials::SolidMaterial& mat, const Section3D& s, double l) {
  if (l <= 0.0) throw std::invalid_argument("beam3d_mass_local: invalid length");
  const double rho_al = mat.density * s.area * l;
  Matrix m(12, 12);
  // Axial.
  m(0, 0) += rho_al / 3.0;
  m(0, 6) += rho_al / 6.0;
  m(6, 0) += rho_al / 6.0;
  m(6, 6) += rho_al / 3.0;
  // Torsion (rotary inertia per length rho*J).
  const double it = mat.density * s.j * l;
  m(3, 3) += it / 3.0;
  m(3, 9) += it / 6.0;
  m(9, 3) += it / 6.0;
  m(9, 9) += it / 3.0;
  add_bending_mass(m, rho_al, l, 1, 5, 7, 11, +1.0);
  add_bending_mass(m, rho_al, l, 2, 4, 8, 10, -1.0);
  return m;
}

Matrix beam3d_transformation(double x1, double y1, double z1, double x2, double y2,
                             double z2) {
  const double dx = x2 - x1, dy = y2 - y1, dz = z2 - z1;
  const double l = std::sqrt(dx * dx + dy * dy + dz * dz);
  if (l <= 0.0) throw std::invalid_argument("beam3d_transformation: zero-length element");
  const double ex[3] = {dx / l, dy / l, dz / l};
  // Reference vector: global Z unless the member is near-vertical.
  double ref[3] = {0.0, 0.0, 1.0};
  if (std::fabs(ex[2]) > 0.999) {
    ref[0] = 0.0;
    ref[1] = 1.0;
    ref[2] = 0.0;
  }
  // ey = ref x ex, normalized; ez = ex x ey.
  double ey[3] = {ref[1] * ex[2] - ref[2] * ex[1], ref[2] * ex[0] - ref[0] * ex[2],
                  ref[0] * ex[1] - ref[1] * ex[0]};
  const double ny = std::sqrt(ey[0] * ey[0] + ey[1] * ey[1] + ey[2] * ey[2]);
  for (double& v : ey) v /= ny;
  const double ez[3] = {ex[1] * ey[2] - ex[2] * ey[1], ex[2] * ey[0] - ex[0] * ey[2],
                        ex[0] * ey[1] - ex[1] * ey[0]};

  Matrix t(12, 12);
  const double lambda[3][3] = {{ex[0], ex[1], ex[2]},
                               {ey[0], ey[1], ey[2]},
                               {ez[0], ez[1], ez[2]}};
  for (std::size_t blk = 0; blk < 4; ++blk)
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j) t(3 * blk + i, 3 * blk + j) = lambda[i][j];
  return t;
}

// --- Frame3D ------------------------------------------------------------------

std::size_t Frame3D::add_node(double x, double y, double z) {
  coords_.push_back({x, y, z});
  fixed_.resize(coords_.size() * 6, false);
  return coords_.size() - 1;
}

void Frame3D::check_node(std::size_t n) const {
  if (n >= coords_.size()) throw std::out_of_range("Frame3D: bad node id");
}

void Frame3D::add_beam(std::size_t n1, std::size_t n2, const materials::SolidMaterial& m,
                       const Section3D& s) {
  check_node(n1);
  check_node(n2);
  if (n1 == n2) throw std::invalid_argument("Frame3D::add_beam: zero-length beam");
  beams_.push_back({n1, n2, m, s});
}

void Frame3D::add_mass(std::size_t node, double mass) {
  check_node(node);
  if (mass <= 0.0) throw std::invalid_argument("Frame3D::add_mass: mass must be > 0");
  masses_.emplace_back(node, mass);
}

void Frame3D::fix_all(std::size_t node) {
  check_node(node);
  for (std::size_t d = 0; d < 6; ++d) fixed_[node * 6 + d] = true;
}

void Frame3D::fix(std::size_t node, std::size_t dof) {
  check_node(node);
  if (dof >= 6) throw std::invalid_argument("Frame3D::fix: dof must be 0..5");
  fixed_[node * 6 + dof] = true;
}

std::size_t Frame3D::global_dof(std::size_t node, std::size_t dof) const {
  check_node(node);
  return node * 6 + dof;
}

void Frame3D::assemble_csr(const DofMap& map, CsrMatrix& k, CsrMatrix* m) const {
  const std::size_t n = map.free_count();
  SparseAssembler ka(n, n), ma(n, n);
  ka.reserve(144 * beams_.size() + n);
  if (m) ma.reserve(144 * beams_.size() + 3 * masses_.size() + n);

  std::vector<std::size_t> dofs(12);
  for (const Beam& b : beams_) {
    const Coord& p1 = coords_[b.n1];
    const Coord& p2 = coords_[b.n2];
    const double l = std::sqrt(std::pow(p2.x - p1.x, 2.0) + std::pow(p2.y - p1.y, 2.0) +
                               std::pow(p2.z - p1.z, 2.0));
    const Matrix t = beam3d_transformation(p1.x, p1.y, p1.z, p2.x, p2.y, p2.z);
    const Matrix ke = t.transposed() * beam3d_stiffness_local(b.mat, b.section, l) * t;
    for (std::size_t d = 0; d < 6; ++d) {
      dofs[d] = b.n1 * 6 + d;
      dofs[6 + d] = b.n2 * 6 + d;
    }
    dofs = map.map_dofs(dofs);
    ka.scatter(dofs, ke);
    if (m) ma.scatter(dofs, t.transposed() * beam3d_mass_local(b.mat, b.section, l) * t);
  }
  // Explicit structural diagonal (zero-valued; sums unchanged) so the
  // massless-DOF clamp and the skyline factorization always find it.
  for (std::size_t i = 0; i < n; ++i) ka.add(i, i, 0.0);
  k = ka.finalize();
  if (!m) return;
  for (const auto& [node, mass] : masses_)
    for (std::size_t d = 0; d < 3; ++d) {
      const std::size_t g = map.to_free(node * 6 + d);
      if (g != DofMap::kFixed) ma.add(g, g, mass);
    }
  for (std::size_t i = 0; i < n; ++i) ma.add(i, i, 0.0);
  *m = ma.finalize();
}

DofMap Frame3D::dof_map() const {
  if (dof_count() == 0) throw std::logic_error("Frame3D: empty model");
  DofMap map(dof_count());
  for (std::size_t i = 0; i < fixed_.size(); ++i)
    if (fixed_[i]) map.fix(i);
  if (map.free_count() == 0) throw std::logic_error("Frame3D: all DOFs fixed");
  return map;
}

void Frame3D::reduced_sparse(CsrMatrix& k, CsrMatrix& m) const {
  const DofMap map = dof_map();
  assemble_csr(map, k, &m);
  // Guard against massless DOFs (rotations of a lumped-mass-only node):
  // a tiny inertia keeps M positive definite.
  clamp_massless_diagonal(m);
}

Vector Frame3D::solve_static(const Vector& loads) const {
  if (loads.size() != dof_count()) throw std::invalid_argument("solve_static: load size");
  const DofMap dmap = dof_map();
  CsrMatrix k;
  assemble_csr(dmap, k, nullptr);
  return dmap.expand(solve_reduced_static(k, dmap.reduce(loads), "Frame3D::solve_static"));
}

Vector Frame3D::natural_frequencies(const ModalOptions& opts) const {
  CsrMatrix k, m;
  reduced_sparse(k, m);
  return solve_reduced_modes(k, m, opts).frequencies_hz;
}

Vector Frame3D::beam_stresses(const Vector& displacements) const {
  if (displacements.size() != dof_count())
    throw std::invalid_argument("beam_stresses: displacement size");
  Vector stresses;
  stresses.reserve(beams_.size());
  for (const Beam& b : beams_) {
    const Coord& p1 = coords_[b.n1];
    const Coord& p2 = coords_[b.n2];
    const double l = std::sqrt(std::pow(p2.x - p1.x, 2.0) + std::pow(p2.y - p1.y, 2.0) +
                               std::pow(p2.z - p1.z, 2.0));
    const Matrix t = beam3d_transformation(p1.x, p1.y, p1.z, p2.x, p2.y, p2.z);
    Vector ue(12);
    for (std::size_t d = 0; d < 6; ++d) {
      ue[d] = displacements[b.n1 * 6 + d];
      ue[6 + d] = displacements[b.n2 * 6 + d];
    }
    const Vector ul = t * ue;
    const Vector fl = beam3d_stiffness_local(b.mat, b.section, l) * ul;
    const double axial = std::fabs(fl[6]);  // axial force at node 2
    // Outer-fiber distances approximated from the section moments.
    const double cy = std::sqrt(b.section.area / 4.0);
    const double cz = cy;
    const double my = std::max(std::fabs(fl[4]), std::fabs(fl[10]));
    const double mz = std::max(std::fabs(fl[5]), std::fabs(fl[11]));
    stresses.push_back(axial / b.section.area + my * cy / b.section.iy +
                       mz * cz / b.section.iz);
  }
  return stresses;
}

}  // namespace aeropack::fem
