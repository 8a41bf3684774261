#include "fem/plate.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

#include "fem/static_solve.hpp"
#include "numeric/assembly.hpp"
#include "numeric/eigen.hpp"
#include "numeric/quadrature.hpp"
#include "numeric/solve_dense.hpp"

namespace aeropack::fem {

using numeric::CsrMatrix;
using numeric::Matrix;
using numeric::SparseAssembler;
using numeric::Vector;

double plate_rigidity(const materials::SolidMaterial& m, double thickness) {
  if (thickness <= 0.0) throw std::invalid_argument("plate_rigidity: thickness must be > 0");
  return m.youngs_modulus * thickness * thickness * thickness /
         (12.0 * (1.0 - m.poisson_ratio * m.poisson_ratio));
}

namespace {

// 12-term ACM polynomial basis and its derivatives at (x, y).
std::array<double, 12> basis(double x, double y) {
  return {1, x, y, x * x, x * y, y * y, x * x * x, x * x * y, x * y * y, y * y * y,
          x * x * x * y, x * y * y * y};
}
std::array<double, 12> basis_x(double x, double y) {
  return {0, 1, 0, 2 * x, y, 0, 3 * x * x, 2 * x * y, y * y, 0, 3 * x * x * y, y * y * y};
}
std::array<double, 12> basis_y(double x, double y) {
  return {0, 0, 1, 0, x, 2 * y, 0, x * x, 2 * x * y, 3 * y * y, x * x * x, 3 * x * y * y};
}
std::array<double, 12> basis_xx(double x, double y) {
  return {0, 0, 0, 2, 0, 0, 6 * x, 2 * y, 0, 0, 6 * x * y, 0};
}
std::array<double, 12> basis_yy(double x, double y) {
  return {0, 0, 0, 0, 0, 2, 0, 0, 2 * x, 6 * y, 0, 6 * x * y};
}
std::array<double, 12> basis_xy(double x, double y) {
  return {0, 0, 0, 0, 1, 0, 0, 2 * x, 2 * y, 0, 3 * x * x, 3 * y * y};
}

/// Coordinate matrix C: row triplets (w, wx, wy) at the 4 corners.
Matrix coordinate_matrix(double a, double b) {
  const double xs[4] = {0.0, a, a, 0.0};
  const double ys[4] = {0.0, 0.0, b, b};
  Matrix c(12, 12);
  for (std::size_t n = 0; n < 4; ++n) {
    const auto p = basis(xs[n], ys[n]);
    const auto px = basis_x(xs[n], ys[n]);
    const auto py = basis_y(xs[n], ys[n]);
    for (std::size_t j = 0; j < 12; ++j) {
      c(3 * n + 0, j) = p[j];
      c(3 * n + 1, j) = px[j];
      c(3 * n + 2, j) = py[j];
    }
  }
  return c;
}

}  // namespace

Matrix acm_plate_stiffness(double a, double b, double d, double nu) {
  if (a <= 0.0 || b <= 0.0 || d <= 0.0) throw std::invalid_argument("acm_plate_stiffness");
  // Bending material matrix.
  Matrix dm(3, 3);
  dm(0, 0) = d;
  dm(0, 1) = d * nu;
  dm(1, 0) = d * nu;
  dm(1, 1) = d;
  dm(2, 2) = d * (1.0 - nu) / 2.0;

  Matrix ka(12, 12);
  const auto pts = numeric::gauss_legendre(4);
  for (const auto& gx : pts)
    for (const auto& gy : pts) {
      const double x = 0.5 * a * (gx.x + 1.0);
      const double y = 0.5 * b * (gy.x + 1.0);
      const double w = gx.weight * gy.weight * 0.25 * a * b;
      const auto pxx = basis_xx(x, y);
      const auto pyy = basis_yy(x, y);
      const auto pxy = basis_xy(x, y);
      Matrix bmat(3, 12);
      for (std::size_t j = 0; j < 12; ++j) {
        bmat(0, j) = pxx[j];
        bmat(1, j) = pyy[j];
        bmat(2, j) = 2.0 * pxy[j];
      }
      const Matrix db = dm * bmat;
      for (std::size_t i = 0; i < 12; ++i)
        for (std::size_t j = 0; j < 12; ++j) {
          double acc = 0.0;
          for (std::size_t r = 0; r < 3; ++r) acc += bmat(r, i) * db(r, j);
          ka(i, j) += w * acc;
        }
    }

  const Matrix cinv = numeric::inverse(coordinate_matrix(a, b));
  Matrix k = cinv.transposed() * ka * cinv;
  k.symmetrize();
  return k;
}

Matrix acm_plate_mass(double a, double b, double mass_per_area) {
  if (a <= 0.0 || b <= 0.0 || mass_per_area <= 0.0)
    throw std::invalid_argument("acm_plate_mass");
  Matrix ma(12, 12);
  const auto pts = numeric::gauss_legendre(4);
  for (const auto& gx : pts)
    for (const auto& gy : pts) {
      const double x = 0.5 * a * (gx.x + 1.0);
      const double y = 0.5 * b * (gy.x + 1.0);
      const double w = gx.weight * gy.weight * 0.25 * a * b * mass_per_area;
      const auto p = basis(x, y);
      for (std::size_t i = 0; i < 12; ++i)
        for (std::size_t j = 0; j < 12; ++j) ma(i, j) += w * p[i] * p[j];
    }
  const Matrix cinv = numeric::inverse(coordinate_matrix(a, b));
  Matrix m = cinv.transposed() * ma * cinv;
  m.symmetrize();
  return m;
}

PlateModel::PlateModel(double length_x, double length_y, double thickness,
                       const materials::SolidMaterial& material, std::size_t nx, std::size_t ny)
    : lx_(length_x), ly_(length_y), thickness_(thickness), material_(material), nx_(nx), ny_(ny) {
  if (lx_ <= 0.0 || ly_ <= 0.0 || thickness_ <= 0.0 || nx_ == 0 || ny_ == 0)
    throw std::invalid_argument("PlateModel: invalid geometry/mesh");
}

void PlateModel::set_edge(EdgeSupport support, bool x_min, bool x_max, bool y_min, bool y_max) {
  if (x_min) edge_[0] = support;
  if (x_max) edge_[1] = support;
  if (y_min) edge_[2] = support;
  if (y_max) edge_[3] = support;
}

std::size_t PlateModel::nearest_node(double x, double y) const {
  const double fx = std::clamp(x / lx_, 0.0, 1.0) * static_cast<double>(nx_);
  const double fy = std::clamp(y / ly_, 0.0, 1.0) * static_cast<double>(ny_);
  const std::size_t i = static_cast<std::size_t>(std::lround(fx));
  const std::size_t j = static_cast<std::size_t>(std::lround(fy));
  return node_index(std::min(i, nx_), std::min(j, ny_));
}

namespace {
// nearest_node clamps onto the plate, so an off-plate or NaN point would
// silently snap to an edge node: refuse it instead, naming the coordinate.
void check_on_plate(const char* where, double x, double y, double lx, double ly) {
  if (!(x >= 0.0 && x <= lx))
    throw std::invalid_argument(std::string(where) + ": x must be finite and on the plate");
  if (!(y >= 0.0 && y <= ly))
    throw std::invalid_argument(std::string(where) + ": y must be finite and on the plate");
}
}  // namespace

void PlateModel::add_point_support(double x, double y) {
  check_on_plate("PlateModel::add_point_support", x, y, lx_, ly_);
  point_supports_.push_back(nearest_node(x, y));
}

void PlateModel::add_point_mass(double x, double y, double mass) {
  check_on_plate("PlateModel::add_point_mass", x, y, lx_, ly_);
  if (!std::isfinite(mass) || mass <= 0.0)
    throw std::invalid_argument("PlateModel::add_point_mass: mass must be finite and > 0");
  point_masses_.emplace_back(nearest_node(x, y), mass);
}

void PlateModel::add_smeared_mass(double mass_per_area) {
  if (mass_per_area < 0.0) throw std::invalid_argument("add_smeared_mass: negative");
  smeared_mass_ += mass_per_area;
}

void PlateModel::add_doubler(double x0, double x1, double y0, double y1,
                             double thickness_factor) {
  if (thickness_factor < 1.0)
    throw std::invalid_argument("add_doubler: factor must be >= 1");
  doublers_.push_back({x0, x1, y0, y1, thickness_factor});
}

double PlateModel::total_mass() const {
  double m = (material_.density * thickness_ + smeared_mass_) * lx_ * ly_;
  for (const auto& [node, mass] : point_masses_) m += mass;
  // Doubler extra mass.
  for (const auto& d : doublers_)
    m += material_.density * thickness_ * (d.factor - 1.0) *
         std::max(d.x1 - d.x0, 0.0) * std::max(d.y1 - d.y0, 0.0);
  return m;
}

void PlateModel::assemble_csr(const DofMap& map, CsrMatrix& k, CsrMatrix* m) const {
  const std::size_t n = map.free_count();
  SparseAssembler ka(n, n), ma(n, n);
  ka.reserve(144 * nx_ * ny_ + n);
  if (m) ma.reserve(144 * nx_ * ny_ + point_masses_.size() + n);

  const double a = lx_ / static_cast<double>(nx_);
  const double b = ly_ / static_cast<double>(ny_);
  const double d0 = plate_rigidity(material_, thickness_);
  const double mpa0 = material_.density * thickness_ + smeared_mass_;

  // The mesh is uniform, so elements share matrices whenever their doubler
  // factors coincide; cache per (stiffness factor, mass factor) pair. With
  // no doublers the whole mesh uses a single pair. Without `m` the mass
  // half stays empty.
  std::map<std::pair<double, double>, std::pair<Matrix, Matrix>> cache;

  std::vector<std::size_t> dofs(12);
  for (std::size_t ej = 0; ej < ny_; ++ej)
    for (std::size_t ei = 0; ei < nx_; ++ei) {
      // Element property factors from doublers covering the element center.
      const double xc = (static_cast<double>(ei) + 0.5) * a;
      const double yc = (static_cast<double>(ej) + 0.5) * b;
      double dfac = 1.0, mfac = 1.0;
      for (const auto& dd : doublers_)
        if (xc >= dd.x0 && xc <= dd.x1 && yc >= dd.y0 && yc <= dd.y1) {
          dfac *= dd.factor * dd.factor * dd.factor;
          mfac *= dd.factor;
        }
      auto it = cache.find({dfac, mfac});
      if (it == cache.end())
        it = cache
                 .emplace(std::make_pair(dfac, mfac),
                          std::make_pair(
                              acm_plate_stiffness(a, b, d0 * dfac, material_.poisson_ratio),
                              m ? acm_plate_mass(a, b, mpa0 * mfac) : Matrix{}))
                 .first;
      const std::size_t nodes[4] = {node_index(ei, ej), node_index(ei + 1, ej),
                                    node_index(ei + 1, ej + 1), node_index(ei, ej + 1)};
      for (std::size_t i = 0; i < 12; ++i) dofs[i] = 3 * nodes[i / 3] + i % 3;
      dofs = map.map_dofs(dofs);
      ka.scatter(dofs, it->second.first);
      if (m) ma.scatter(dofs, it->second.second);
    }

  // Explicit structural diagonal (zero-valued; sums unchanged) so the
  // massless-DOF clamp and the skyline factorization always find it.
  for (std::size_t i = 0; i < n; ++i) ka.add(i, i, 0.0);
  k = ka.finalize();
  if (!m) return;
  for (const auto& [node, mass] : point_masses_) {
    const std::size_t w = map.to_free(3 * node);
    if (w != DofMap::kFixed) ma.add(w, w, mass);
  }
  for (std::size_t i = 0; i < n; ++i) ma.add(i, i, 0.0);
  *m = ma.finalize();
}

DofMap PlateModel::dof_map() const {
  DofMap map(dof_count());
  auto fix_node = [&](std::size_t node, bool w, bool wx, bool wy) {
    if (w) map.fix(3 * node + 0);
    if (wx) map.fix(3 * node + 1);
    if (wy) map.fix(3 * node + 2);
  };
  for (std::size_t j = 0; j <= ny_; ++j) {
    if (edge_[0] != EdgeSupport::Free)  // x = 0 edge: tangent direction is y
      fix_node(node_index(0, j), true, edge_[0] == EdgeSupport::Clamped, true);
    if (edge_[1] != EdgeSupport::Free)
      fix_node(node_index(nx_, j), true, edge_[1] == EdgeSupport::Clamped, true);
  }
  for (std::size_t i = 0; i <= nx_; ++i) {
    if (edge_[2] != EdgeSupport::Free)  // y = 0 edge: tangent direction is x
      fix_node(node_index(i, 0), true, true, edge_[2] == EdgeSupport::Clamped);
    if (edge_[3] != EdgeSupport::Free)
      fix_node(node_index(i, ny_), true, true, edge_[3] == EdgeSupport::Clamped);
  }
  for (std::size_t node : point_supports_) fix_node(node, true, false, false);
  if (map.free_count() == 0) throw std::logic_error("PlateModel: all DOFs fixed");
  return map;
}

void PlateModel::reduced_sparse(CsrMatrix& k, CsrMatrix& m) const {
  const DofMap map = dof_map();
  assemble_csr(map, k, &m);
}

PlateModalResult PlateModel::solve_modal(const ModalOptions& opts) const {
  const DofMap dmap = dof_map();
  CsrMatrix k, m;
  assemble_csr(dmap, k, &m);
  const ReducedModes modes = solve_reduced_modes(k, m, opts);
  const std::size_t nr = dmap.free_count();
  const std::size_t nm = modes.eigenvalues.size();

  PlateModalResult res;
  res.frequencies_hz = modes.frequencies_hz;
  res.shapes = modes.shapes;
  res.free_to_full = dmap.free_to_full();

  // Out-of-plane participation: r = 1 on every free w DOF.
  Vector r(nr, 0.0);
  for (std::size_t i = 0; i < nr; ++i)
    if (res.free_to_full[i] % 3 == 0) r[i] = 1.0;
  const Vector mr = m.multiply(r);
  res.participation_factors.resize(nm);
  res.effective_masses.resize(nm);
  for (std::size_t j = 0; j < nm; ++j) {
    double gamma = 0.0;
    for (std::size_t i = 0; i < nr; ++i) gamma += modes.shapes(i, j) * mr[i];
    res.participation_factors[j] = gamma;
    res.effective_masses[j] = gamma * gamma;
  }
  return res;
}

numeric::Vector PlateModel::solve_static_pressure(double pressure) const {
  const DofMap dmap = dof_map();
  CsrMatrix k;
  assemble_csr(dmap, k, nullptr);

  // Consistent load: lump the pressure tributary area onto the w DOFs
  // (exact for uniform meshes to the order of the element).
  Vector f(dof_count(), 0.0);
  const double a = lx_ / static_cast<double>(nx_);
  const double b = ly_ / static_cast<double>(ny_);
  for (std::size_t j = 0; j <= ny_; ++j)
    for (std::size_t i = 0; i <= nx_; ++i) {
      const double wx = (i == 0 || i == nx_) ? 0.5 : 1.0;
      const double wy = (j == 0 || j == ny_) ? 0.5 : 1.0;
      f[3 * node_index(i, j)] = pressure * a * b * wx * wy;
    }
  return dmap.expand(
      solve_reduced_static(k, dmap.reduce(f), "PlateModel::solve_static_pressure"));
}

double PlateModel::max_deflection_under_g(double n_g) const {
  constexpr double g = 9.80665;
  const double pressure = total_mass() / (lx_ * ly_) * std::fabs(n_g) * g;
  const Vector u = solve_static_pressure(pressure);
  double peak = 0.0;
  for (std::size_t n = 0; n < node_count(); ++n)
    peak = std::max(peak, std::fabs(u[3 * n]));
  return peak;
}

double PlateModel::max_bending_stress(const Vector& u) const {
  if (u.size() != dof_count())
    throw std::invalid_argument("max_bending_stress: displacement size mismatch");
  const double a = lx_ / static_cast<double>(nx_);
  const double b = ly_ / static_cast<double>(ny_);
  const double d0 = plate_rigidity(material_, thickness_);
  const double nu = material_.poisson_ratio;
  const Matrix cinv = numeric::inverse(coordinate_matrix(a, b));

  double worst = 0.0;
  for (std::size_t ej = 0; ej < ny_; ++ej)
    for (std::size_t ei = 0; ei < nx_; ++ei) {
      const std::size_t nodes[4] = {node_index(ei, ej), node_index(ei + 1, ej),
                                    node_index(ei + 1, ej + 1), node_index(ei, ej + 1)};
      Vector ue(12);
      for (std::size_t nloc = 0; nloc < 4; ++nloc)
        for (std::size_t d = 0; d < 3; ++d) ue[3 * nloc + d] = u[3 * nodes[nloc] + d];
      const Vector coeff = cinv * ue;  // polynomial coefficients
      // Curvatures at the element center.
      const auto pxx = basis_xx(0.5 * a, 0.5 * b);
      const auto pyy = basis_yy(0.5 * a, 0.5 * b);
      const auto pxy = basis_xy(0.5 * a, 0.5 * b);
      double kxx = 0.0, kyy = 0.0, kxy = 0.0;
      for (std::size_t t = 0; t < 12; ++t) {
        kxx += pxx[t] * coeff[t];
        kyy += pyy[t] * coeff[t];
        kxy += pxy[t] * coeff[t];
      }
      // Doubler factor on the local rigidity (matches assemble()).
      const double xc = (static_cast<double>(ei) + 0.5) * a;
      const double yc = (static_cast<double>(ej) + 0.5) * b;
      double dfac = 1.0;
      for (const auto& dd : doublers_)
        if (xc >= dd.x0 && xc <= dd.x1 && yc >= dd.y0 && yc <= dd.y1)
          dfac *= dd.factor * dd.factor * dd.factor;
      const double d_local = d0 * dfac;
      const double mx = -d_local * (kxx + nu * kyy);
      const double my = -d_local * (kyy + nu * kxx);
      const double mxy = -d_local * (1.0 - nu) * kxy;
      // Principal-moment surface stress (von-Mises-ish bound via max |M|).
      const double m_avg = 0.5 * (mx + my);
      const double m_dev = std::sqrt(0.25 * (mx - my) * (mx - my) + mxy * mxy);
      const double m_max = std::max(std::fabs(m_avg + m_dev), std::fabs(m_avg - m_dev));
      worst = std::max(worst, 6.0 * m_max / (thickness_ * thickness_));
    }
  return worst;
}

double PlateModel::fundamental_frequency() const {
  // Only the bottom of the spectrum is wanted; bound the mode count so the
  // sparse path stays a partial eigensolve on fine meshes.
  ModalOptions opts;
  opts.n_modes = 8;
  const auto res = solve_modal(opts);
  for (double f : res.frequencies_hz)
    if (f > 1e-3) return f;
  return 0.0;
}

double ss_plate_frequency(double a, double b, double thickness,
                          const materials::SolidMaterial& mat, int m, int n,
                          double extra_mass_per_area) {
  if (m < 1 || n < 1) throw std::invalid_argument("ss_plate_frequency: mode indices >= 1");
  const double d = plate_rigidity(mat, thickness);
  const double mpa = mat.density * thickness + extra_mass_per_area;
  const double pi = std::numbers::pi;
  const double term = std::pow(m / a, 2.0) + std::pow(n / b, 2.0);
  // omega = pi^2 [(m/a)^2 + (n/b)^2] sqrt(D / rho h);  f = omega / (2 pi).
  return 0.5 * pi * term * std::sqrt(d / mpa);
}

}  // namespace aeropack::fem
