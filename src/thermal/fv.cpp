#include "thermal/fv.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/transient_engine.hpp"
#include "numeric/amg.hpp"
#include "numeric/hashing.hpp"
#include "numeric/parallel.hpp"
#include "obs/registry.hpp"

namespace aeropack::thermal {

using numeric::Vector;

// --- FvGrid -----------------------------------------------------------------

FvGrid::FvGrid(Vector dx, Vector dy, Vector dz)
    : dx_(std::move(dx)), dy_(std::move(dy)), dz_(std::move(dz)) {
  if (dx_.empty() || dy_.empty() || dz_.empty())
    throw std::invalid_argument("FvGrid: empty axis");
  for (const Vector* v : {&dx_, &dy_, &dz_})
    for (double d : *v)
      if (d <= 0.0) throw std::invalid_argument("FvGrid: cell sizes must be positive");
}

FvGrid FvGrid::uniform(double lx, double ly, double lz, std::size_t nx, std::size_t ny,
                       std::size_t nz) {
  if (lx <= 0.0 || ly <= 0.0 || lz <= 0.0 || nx == 0 || ny == 0 || nz == 0)
    throw std::invalid_argument("FvGrid::uniform: invalid extents");
  return FvGrid(Vector(nx, lx / static_cast<double>(nx)), Vector(ny, ly / static_cast<double>(ny)),
                Vector(nz, lz / static_cast<double>(nz)));
}

double FvGrid::x_center(std::size_t i) const {
  double acc = 0.0;
  for (std::size_t a = 0; a < i; ++a) acc += dx_[a];
  return acc + 0.5 * dx_[i];
}
double FvGrid::y_center(std::size_t j) const {
  double acc = 0.0;
  for (std::size_t a = 0; a < j; ++a) acc += dy_[a];
  return acc + 0.5 * dy_[j];
}
double FvGrid::z_center(std::size_t k) const {
  double acc = 0.0;
  for (std::size_t a = 0; a < k; ++a) acc += dz_[a];
  return acc + 0.5 * dz_[k];
}
double FvGrid::lx() const { return std::accumulate(dx_.begin(), dx_.end(), 0.0); }
double FvGrid::ly() const { return std::accumulate(dy_.begin(), dy_.end(), 0.0); }
double FvGrid::lz() const { return std::accumulate(dz_.begin(), dz_.end(), 0.0); }

// --- BoundaryCondition factories ---------------------------------------------

BoundaryCondition BoundaryCondition::fixed(double t_k) {
  BoundaryCondition bc;
  bc.kind = BoundaryKind::FixedTemperature;
  bc.temperature = t_k;
  return bc;
}
BoundaryCondition BoundaryCondition::convection(double h, double t_k) {
  if (h <= 0.0) throw std::invalid_argument("BoundaryCondition::convection: h must be > 0");
  BoundaryCondition bc;
  bc.kind = BoundaryKind::Convection;
  bc.h = h;
  bc.temperature = t_k;
  return bc;
}
BoundaryCondition BoundaryCondition::convection_radiation(double h, double t_k,
                                                          double emissivity) {
  BoundaryCondition bc;
  bc.kind = BoundaryKind::ConvectionRadiation;
  bc.h = h;
  bc.temperature = t_k;
  bc.emissivity = emissivity;
  return bc;
}
BoundaryCondition BoundaryCondition::natural(SurfaceOrientation o, double length, double t_k,
                                             double pressure) {
  BoundaryCondition bc;
  bc.kind = BoundaryKind::NaturalConvection;
  bc.orientation = o;
  bc.characteristic_length = length;
  bc.temperature = t_k;
  bc.pressure = pressure;
  return bc;
}
BoundaryCondition BoundaryCondition::heat_flux(double flux) {
  BoundaryCondition bc;
  bc.kind = BoundaryKind::HeatFlux;
  bc.flux = flux;
  return bc;
}

// --- FvModel ------------------------------------------------------------------

FvModel::FvModel(FvGrid grid)
    : grid_(std::move(grid)),
      kx_(grid_.cell_count(), 1.0),
      ky_(grid_.cell_count(), 1.0),
      kz_(grid_.cell_count(), 1.0),
      rho_cp_(grid_.cell_count(), 1e6),
      source_(grid_.cell_count(), 0.0) {
  patch_bc_[0].resize(grid_.ny() * grid_.nz());
  patch_bc_[1].resize(grid_.ny() * grid_.nz());
  patch_bc_[2].resize(grid_.nx() * grid_.nz());
  patch_bc_[3].resize(grid_.nx() * grid_.nz());
  patch_bc_[4].resize(grid_.nx() * grid_.ny());
  patch_bc_[5].resize(grid_.nx() * grid_.ny());
}

CellRange FvModel::all_cells() const {
  return {0, grid_.nx(), 0, grid_.ny(), 0, grid_.nz()};
}

void FvModel::check_range(const CellRange& r) const {
  if (r.i1 > grid_.nx() || r.j1 > grid_.ny() || r.k1 > grid_.nz() || r.i0 >= r.i1 ||
      r.j0 >= r.j1 || r.k0 >= r.k1)
    throw std::out_of_range("FvModel: invalid cell range");
}

void FvModel::set_material(const materials::SolidMaterial& m) { set_material(all_cells(), m); }

void FvModel::set_material(const CellRange& r, const materials::SolidMaterial& m) {
  check_range(r);
  for (std::size_t k = r.k0; k < r.k1; ++k)
    for (std::size_t j = r.j0; j < r.j1; ++j)
      for (std::size_t i = r.i0; i < r.i1; ++i) {
        const std::size_t c = grid_.index(i, j, k);
        kx_[c] = m.conductivity;
        ky_[c] = m.conductivity;
        kz_[c] = m.conductivity_through;  // convention: z is "through" for boards
        rho_cp_[c] = m.density * m.specific_heat;
      }
}

void FvModel::set_conductivity(const CellRange& r, double kx, double ky, double kz) {
  check_range(r);
  if (kx <= 0.0 || ky <= 0.0 || kz <= 0.0)
    throw std::invalid_argument("set_conductivity: conductivities must be positive");
  for (std::size_t k = r.k0; k < r.k1; ++k)
    for (std::size_t j = r.j0; j < r.j1; ++j)
      for (std::size_t i = r.i0; i < r.i1; ++i) {
        const std::size_t c = grid_.index(i, j, k);
        kx_[c] = kx;
        ky_[c] = ky;
        kz_[c] = kz;
      }
}

void FvModel::add_interface_z(std::size_t k_plane, double specific_resistance) {
  if (k_plane + 1 >= grid_.nz())
    throw std::out_of_range("add_interface_z: plane outside the grid");
  if (specific_resistance <= 0.0)
    throw std::invalid_argument("add_interface_z: resistance must be > 0");
  interfaces_z_.emplace_back(k_plane, specific_resistance);
}

void FvModel::add_power(const CellRange& r, double watts) {
  check_range(r);
  if (!std::isfinite(watts))
    throw std::invalid_argument("FvModel::add_power: watts must be finite");
  double vol = 0.0;
  for (std::size_t k = r.k0; k < r.k1; ++k)
    for (std::size_t j = r.j0; j < r.j1; ++j)
      for (std::size_t i = r.i0; i < r.i1; ++i) vol += grid_.cell_volume(i, j, k);
  for (std::size_t k = r.k0; k < r.k1; ++k)
    for (std::size_t j = r.j0; j < r.j1; ++j)
      for (std::size_t i = r.i0; i < r.i1; ++i)
        source_[grid_.index(i, j, k)] += watts * grid_.cell_volume(i, j, k) / vol;
}

void FvModel::add_power_density(const std::function<double(double, double, double)>& qv) {
  for (std::size_t k = 0; k < grid_.nz(); ++k)
    for (std::size_t j = 0; j < grid_.ny(); ++j)
      for (std::size_t i = 0; i < grid_.nx(); ++i)
        source_[grid_.index(i, j, k)] +=
            qv(grid_.x_center(i), grid_.y_center(j), grid_.z_center(k)) *
            grid_.cell_volume(i, j, k);
}

void FvModel::clear_power() { std::fill(source_.begin(), source_.end(), 0.0); }

namespace {
// Refuse non-finite fields by name. Range checks (e.g. positive kelvin) stay
// with the callers: the ROM builder applies 0 K superposition sinks.
void check_finite(const char* where, const BoundaryCondition& bc) {
  const std::pair<const char*, double> fields[] = {
      {"temperature", bc.temperature}, {"h", bc.h}, {"flux", bc.flux},
      {"emissivity", bc.emissivity}, {"characteristic_length", bc.characteristic_length},
      {"pressure", bc.pressure}};
  for (const auto& [name, value] : fields)
    if (!std::isfinite(value))
      throw std::invalid_argument(std::string(where) + ": boundary " + name + " must be finite");
}
}  // namespace

void FvModel::set_boundary(Face f, const BoundaryCondition& bc) {
  check_finite("FvModel::set_boundary", bc);
  default_bc_[static_cast<std::size_t>(f)] = bc;
}

void FvModel::set_boundary_patch(Face f, const CellRange& r, const BoundaryCondition& bc) {
  check_finite("FvModel::set_boundary_patch", bc);
  auto& patches = patch_bc_[static_cast<std::size_t>(f)];
  switch (f) {
    case Face::XMin:
    case Face::XMax:
      if (r.j1 > grid_.ny() || r.k1 > grid_.nz() || r.j0 >= r.j1 || r.k0 >= r.k1)
        throw std::out_of_range("set_boundary_patch: invalid patch");
      for (std::size_t k = r.k0; k < r.k1; ++k)
        for (std::size_t j = r.j0; j < r.j1; ++j) patches[j + grid_.ny() * k] = bc;
      break;
    case Face::YMin:
    case Face::YMax:
      if (r.i1 > grid_.nx() || r.k1 > grid_.nz() || r.i0 >= r.i1 || r.k0 >= r.k1)
        throw std::out_of_range("set_boundary_patch: invalid patch");
      for (std::size_t k = r.k0; k < r.k1; ++k)
        for (std::size_t i = r.i0; i < r.i1; ++i) patches[i + grid_.nx() * k] = bc;
      break;
    case Face::ZMin:
    case Face::ZMax:
      if (r.i1 > grid_.nx() || r.j1 > grid_.ny() || r.i0 >= r.i1 || r.j0 >= r.j1)
        throw std::out_of_range("set_boundary_patch: invalid patch");
      for (std::size_t j = r.j0; j < r.j1; ++j)
        for (std::size_t i = r.i0; i < r.i1; ++i) patches[i + grid_.nx() * j] = bc;
      break;
  }
}

void FvModel::clear_boundary_overrides() {
  for (auto& patches : patch_bc_)
    std::fill(patches.begin(), patches.end(), std::nullopt);
}

const BoundaryCondition& FvModel::boundary_for(Face f, std::size_t a, std::size_t b) const {
  const auto& patches = patch_bc_[static_cast<std::size_t>(f)];
  std::size_t idx = 0;
  switch (f) {
    case Face::XMin:
    case Face::XMax:
      idx = a + grid_.ny() * b;  // a = j, b = k
      break;
    case Face::YMin:
    case Face::YMax:
      idx = a + grid_.nx() * b;  // a = i, b = k
      break;
    case Face::ZMin:
    case Face::ZMax:
      idx = a + grid_.nx() * b;  // a = i, b = j
      break;
  }
  if (patches[idx].has_value()) return *patches[idx];
  return default_bc_[static_cast<std::size_t>(f)];
}

double FvModel::face_conductance_x(std::size_t i0, std::size_t i1, std::size_t j, std::size_t k,
                                   FaceConductanceScheme scheme) const {
  const double area = grid_.dy(j) * grid_.dz(k);
  const double ka = kx_[grid_.index(i0, j, k)];
  const double kb = kx_[grid_.index(i1, j, k)];
  const double da = grid_.dx(i0), db = grid_.dx(i1);
  if (scheme == FaceConductanceScheme::HarmonicMean)
    return area / (0.5 * da / ka + 0.5 * db / kb);
  return 0.5 * (ka + kb) * area / (0.5 * (da + db));
}

double FvModel::face_conductance_y(std::size_t j0, std::size_t j1, std::size_t i, std::size_t k,
                                   FaceConductanceScheme scheme) const {
  const double area = grid_.dx(i) * grid_.dz(k);
  const double ka = ky_[grid_.index(i, j0, k)];
  const double kb = ky_[grid_.index(i, j1, k)];
  const double da = grid_.dy(j0), db = grid_.dy(j1);
  if (scheme == FaceConductanceScheme::HarmonicMean)
    return area / (0.5 * da / ka + 0.5 * db / kb);
  return 0.5 * (ka + kb) * area / (0.5 * (da + db));
}

double FvModel::face_conductance_z(std::size_t k0, std::size_t k1, std::size_t i, std::size_t j,
                                   FaceConductanceScheme scheme) const {
  const double area = grid_.dx(i) * grid_.dy(j);
  const double ka = kz_[grid_.index(i, j, k0)];
  const double kb = kz_[grid_.index(i, j, k1)];
  const double da = grid_.dz(k0), db = grid_.dz(k1);
  // Contact (TIM / bond-line) resistance registered on this plane.
  double r_contact = 0.0;
  for (const auto& [plane, r_spec] : interfaces_z_)
    if (plane == std::min(k0, k1)) r_contact += r_spec / area;
  if (scheme == FaceConductanceScheme::HarmonicMean)
    return 1.0 / (0.5 * da / (ka * area) + 0.5 * db / (kb * area) + r_contact);
  const double g_bulk = 0.5 * (ka + kb) * area / (0.5 * (da + db));
  return 1.0 / (1.0 / g_bulk + r_contact);
}

double FvModel::boundary_conductance(const BoundaryCondition& bc, double area,
                                     double half_thickness, double k_cell, double t_cell) const {
  const double g_cond = k_cell * area / half_thickness;
  switch (bc.kind) {
    case BoundaryKind::Adiabatic:
    case BoundaryKind::HeatFlux:
      return 0.0;
    case BoundaryKind::FixedTemperature:
      return g_cond;
    case BoundaryKind::Convection: {
      const double g_film = bc.h * area;
      return 1.0 / (1.0 / g_cond + 1.0 / g_film);
    }
    case BoundaryKind::ConvectionRadiation: {
      const double h_eff = bc.h + h_radiation(t_cell, bc.temperature, bc.emissivity);
      if (h_eff <= 0.0) return 0.0;
      const double g_film = h_eff * area;
      return 1.0 / (1.0 / g_cond + 1.0 / g_film);
    }
    case BoundaryKind::NaturalConvection: {
      const double h = h_natural_plate(bc.orientation, t_cell, bc.temperature,
                                       bc.characteristic_length, bc.pressure);
      if (h <= 0.0) return 0.0;
      const double g_film = h * area;
      return 1.0 / (1.0 / g_cond + 1.0 / g_film);
    }
  }
  throw std::logic_error("boundary_conductance: unknown kind");
}

namespace {
struct BoundaryFaceView {
  Face face;
  std::size_t i, j, k;  // cell indices
  std::size_t a, b;     // in-plane indices for boundary_for
  double area;
  double half;    // half cell thickness normal to the face
  double k_cell;  // conductivity normal to the face
};
}  // namespace

// Visit every boundary cell-face of the domain.
template <typename F>
static void for_each_boundary_face(const FvGrid& g, const Vector& kx, const Vector& ky,
                                   const Vector& kz, F&& fn) {
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t j = 0; j < ny; ++j) {
      fn(BoundaryFaceView{Face::XMin, 0, j, k, j, k, g.dy(j) * g.dz(k), 0.5 * g.dx(0),
                          kx[g.index(0, j, k)]});
      fn(BoundaryFaceView{Face::XMax, nx - 1, j, k, j, k, g.dy(j) * g.dz(k),
                          0.5 * g.dx(nx - 1), kx[g.index(nx - 1, j, k)]});
    }
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t i = 0; i < nx; ++i) {
      fn(BoundaryFaceView{Face::YMin, i, 0, k, i, k, g.dx(i) * g.dz(k), 0.5 * g.dy(0),
                          ky[g.index(i, 0, k)]});
      fn(BoundaryFaceView{Face::YMax, i, ny - 1, k, i, k, g.dx(i) * g.dz(k),
                          0.5 * g.dy(ny - 1), ky[g.index(i, ny - 1, k)]});
    }
  for (std::size_t j = 0; j < ny; ++j)
    for (std::size_t i = 0; i < nx; ++i) {
      fn(BoundaryFaceView{Face::ZMin, i, j, 0, i, j, g.dx(i) * g.dy(j), 0.5 * g.dz(0),
                          kz[g.index(i, j, 0)]});
      fn(BoundaryFaceView{Face::ZMax, i, j, nz - 1, i, j, g.dx(i) * g.dy(j),
                          0.5 * g.dz(nz - 1), kz[g.index(i, j, nz - 1)]});
    }
}

std::size_t FvAssembly::cost_bytes() const {
  return sizeof(FvAssembly) + matrix.cost_bytes() + (amg ? amg->cost_bytes() : 0);
}

namespace {
// Assemblies carry no time step (transient marches add capacity/dt per
// step); the parameter remains only for callers that pass 0.0.
void check_no_inv_dt(const char* where, double inv_dt) {
  if (inv_dt != 0.0) throw std::invalid_argument(std::string(where) + ": inv_dt must be 0");
}
}  // namespace

std::uint64_t FvModel::structural_hash(const FvOptions& opts, double inv_dt) const {
  check_no_inv_dt("FvModel::structural_hash", inv_dt);
  numeric::StructuralHasher h;
  h.add("thermal.fv_assembly");
  // Grid geometry as exact cell-size bits.
  h.add(static_cast<std::uint64_t>(grid_.nx()))
      .add(static_cast<std::uint64_t>(grid_.ny()))
      .add(static_cast<std::uint64_t>(grid_.nz()));
  for (std::size_t i = 0; i < grid_.nx(); ++i) h.add(grid_.dx(i));
  for (std::size_t j = 0; j < grid_.ny(); ++j) h.add(grid_.dy(j));
  for (std::size_t k = 0; k < grid_.nz(); ++k) h.add(grid_.dz(k));
  // Every per-cell coefficient the assembly bakes in. Sources and boundary
  // conditions are deliberately absent: they are per-solve inputs.
  h.add(kx_).add(ky_).add(kz_).add(rho_cp_);
  h.add(static_cast<std::uint64_t>(interfaces_z_.size()));
  for (const auto& [plane, r_spec] : interfaces_z_)
    h.add(static_cast<std::uint64_t>(plane)).add(r_spec);
  h.add(static_cast<std::uint64_t>(opts.scheme));
  h.add(inv_dt);  // always 0.0; still hashed so every key, and so its cache shard, is stable
  return h.value();
}

std::shared_ptr<const FvAssembly> FvModel::build_assembly(const FvOptions& opts,
                                                          double inv_dt) const {
  check_no_inv_dt("FvModel::build_assembly", inv_dt);
  static thread_local obs::CounterHandle assemblies{"fv.structure_assemblies"};
  assemblies.add();
  obs::ScopedTimer span("fv.assemble_structure");
  const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const std::size_t n = grid_.cell_count();
  const std::size_t sxy = nx * ny;

  // Face conductances: temperature-independent, computed exactly once and
  // stored as the stencil's coupling planes: cx[c] = -g of the face between
  // cell c and its +x neighbour (cy, cz analogous), 0 on the domain faces.
  // The range is nz but each index fills a full plane of faces: the grain
  // estimate must count cells, or the dispatcher would serialize real work.
  Vector cx(n, 0.0), cy(n, 0.0), cz(n, 0.0);
  numeric::parallel_for(
      0, nz,
      [&](std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k)
          for (std::size_t j = 0; j < ny; ++j)
            for (std::size_t i = 0; i < nx; ++i) {
              const std::size_t c = grid_.index(i, j, k);
              if (i + 1 < nx) cx[c] = -face_conductance_x(i, i + 1, j, k, opts.scheme);
              if (j + 1 < ny) cy[c] = -face_conductance_y(j, j + 1, i, k, opts.scheme);
              if (k + 1 < nz) cz[c] = -face_conductance_z(k, k + 1, i, j, opts.scheme);
            }
      },
      numeric::grain::Work::elements(n, numeric::grain::Cost::kCell));

  // Boundary-free diagonal: the row's conductances summed in CSR column
  // order (-z, -y, -x, +x, +y, +z), the order every consumer of the
  // operator has always seen.
  Vector diag(n, 0.0);
  numeric::parallel_for(
      0, nz,
      [&](std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k)
          for (std::size_t j = 0; j < ny; ++j)
            for (std::size_t i = 0; i < nx; ++i) {
              const std::size_t c = grid_.index(i, j, k);
              double d = 0.0;
              if (k > 0) d += -cz[c - sxy];
              if (j > 0) d += -cy[c - nx];
              if (i > 0) d += -cx[c - 1];
              if (i + 1 < nx) d += -cx[c];
              if (j + 1 < ny) d += -cy[c];
              if (k + 1 < nz) d += -cz[c];
              diag[c] = d;
            }
      },
      numeric::grain::Work::elements(n, numeric::grain::Cost::kCell));

  auto cache = std::make_shared<FvAssembly>();
  cache->structural_hash = structural_hash(opts);
  cache->matrix = numeric::StencilMatrix(nx, ny, nz, std::move(cx), std::move(cy),
                                         std::move(cz), std::move(diag));
  if (n >= kAmgMinCells)
    cache->amg = std::make_shared<const numeric::AmgHierarchy>(cache->matrix);
  return cache;
}

namespace {
// Bitwise equality of two conditions: doubles compare by bits, so +0 and -0
// differ and a NaN matches only the same NaN (a drive may treat them
// differently, and == would alias them).
bool same_bits(const BoundaryCondition& a, const BoundaryCondition& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.kind == b.kind && a.orientation == b.orientation &&
         bits(a.temperature) == bits(b.temperature) && bits(a.h) == bits(b.h) &&
         bits(a.flux) == bits(b.flux) && bits(a.emissivity) == bits(b.emissivity) &&
         bits(a.characteristic_length) == bits(b.characteristic_length) &&
         bits(a.pressure) == bits(b.pressure);
}
}  // namespace

FvModel::Workspace FvModel::make_workspace(std::shared_ptr<const FvAssembly> assembly) const {
  Workspace ws;
  ws.matrix = assembly->matrix;  // private diagonal; the shared artifact stays immutable
  ws.assembly = std::move(assembly);
  return ws;
}

void FvModel::update_boundary_terms(Workspace& ws, const Vector& temps, Vector& rhs,
                                    const FvDrive* drive, double t, const Vector* capacity,
                                    double inv_dt) const {
  static thread_local obs::CounterHandle updates{"fv.boundary_updates"};
  updates.add();
  obs::ScopedTimer span("fv.update_boundary");
  const Vector& base = ws.assembly->matrix.diagonal();
  Vector& diag = ws.matrix.diagonal();
  // The assembly carries no capacity: a transient step's implicit-Euler
  // terms join here, so the same shared assembly serves every step size.
  const double ps = (drive && drive->power_scale) ? drive->power_scale(t) : 1.0;
  rhs.resize(source_.size());
  numeric::parallel_for(0, rhs.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      if (!capacity) {
        diag[c] = base[c];
        rhs[c] = ps * source_[c];
        continue;
      }
      diag[c] = base[c] + (*capacity)[c] * inv_dt;
      rhs[c] = ps * source_[c] + (*capacity)[c] * inv_dt * temps[c];
    }
  });
  // Boundary films are the only temperature-dependent coefficients; the
  // surface is O(n^(2/3)) so this per-pass rewrite is cheap. A drive is
  // pure, so each Face keeps the last stored condition it resolved and
  // calls the drive again only when the stored bits change (faces are
  // visited interleaved, so one shared slot would miss every time).
  struct Resolved {
    bool valid = false;
    BoundaryCondition stored, bc;
  };
  std::array<Resolved, 6> last;
  const bool driven = drive && drive->boundary;
  for_each_boundary_face(grid_, kx_, ky_, kz_, [&](const BoundaryFaceView& f) {
    const BoundaryCondition& stored = boundary_for(f.face, f.a, f.b);
    const BoundaryCondition* bc = &stored;
    if (driven) {
      Resolved& r = last[static_cast<std::size_t>(f.face)];
      if (!r.valid || !same_bits(r.stored, stored)) {
        r.bc = drive->boundary(t, f.face, stored);
        r.stored = stored;
        r.valid = true;
      }
      bc = &r.bc;
    }
    const std::size_t c = grid_.index(f.i, f.j, f.k);
    if (bc->kind == BoundaryKind::HeatFlux) {
      rhs[c] += bc->flux * f.area;
      return;
    }
    const double g = boundary_conductance(*bc, f.area, f.half, f.k_cell, temps[c]);
    if (g <= 0.0) return;
    diag[c] += g;
    rhs[c] += g * bc->temperature;
  });
}

// --- FvTransientStepper -----------------------------------------------------

FvTransientStepper::FvTransientStepper(const FvModel& model, const FvOptions& opts,
                                       std::shared_ptr<const FvAssembly> assembly)
    : model_(&model), opts_(opts) {
  if (!assembly) {
    assembly = model.build_assembly(opts);
    structure_assemblies_ = 1;
  } else if (assembly->structural_hash != model.structural_hash(opts)) {
    throw std::invalid_argument(
        "FvTransientStepper: shared assembly does not match this model "
        "(structural hash differs)");
  }
  ws_ = model.make_workspace(std::move(assembly));
  capacity_ = model.cell_capacities();
  rhs_.assign(model.grid().cell_count(), 0.0);
}

std::size_t FvTransientStepper::step(Vector& temps, double t_next, double dt,
                                     const FvDrive* drive) {
  core::check_step_size("FvTransientStepper::step", dt);
  core::check_state_size("FvTransientStepper::step", temps.size(), capacity_.size());
  static thread_local obs::CounterHandle transient_steps{"fv.transient_steps"};
  static thread_local obs::CounterHandle warmstart_hits{"fv.warmstart_hits"};
  model_->update_boundary_terms(ws_, temps, rhs_, drive, t_next, &capacity_, 1.0 / dt);
  const auto lin = numeric::conjugate_gradient(ws_.matrix, rhs_, opts_.linear, &temps);
  if (!lin.converged)
    throw std::runtime_error("FvTransientStepper::step: linear solver failed");
  transient_steps.add();
  if (lin.iterations == 0) warmstart_hits.add();
  temps = lin.x;
  return lin.iterations;
}

void FvTransientStepper::rate(const Vector& temps, double t, Vector& out) {
  core::check_state_size("FvTransientStepper::rate", temps.size(), capacity_.size());
  model_->update_boundary_terms(ws_, temps, rhs_, drive_, t);
  ws_.matrix.multiply(temps, out);
  // A cell without capacity (rho cp = 0) is quasi-steady: it has no rate of
  // its own, and each implicit step solves its balance outright.
  for (std::size_t c = 0; c < out.size(); ++c)
    out[c] = capacity_[c] > 0.0 ? (rhs_[c] - out[c]) / capacity_[c] : 0.0;
}

double FvTransientStepper::error_norm(const Vector& a, const Vector& b) const {
  // Serial max-norm: the controller metric must be bitwise independent of
  // the thread count (same contract as the march itself).
  double err = 0.0;
  for (std::size_t c = 0; c < a.size(); ++c) err = std::max(err, std::abs(a[c] - b[c]));
  return err;
}

LinearSteadySystem FvModel::linearize_steady(const FvOptions& opts) const {
  bool nonlinear = false;
  for_each_boundary_face(grid_, kx_, ky_, kz_, [&](const BoundaryFaceView& f) {
    const BoundaryCondition& bc = boundary_for(f.face, f.a, f.b);
    if (bc.kind == BoundaryKind::ConvectionRadiation ||
        bc.kind == BoundaryKind::NaturalConvection)
      nonlinear = true;
  });
  if (nonlinear)
    throw std::invalid_argument(
        "FvModel::linearize_steady: model has temperature-dependent boundary "
        "conditions (ConvectionRadiation / NaturalConvection); only linear "
        "boundaries admit a single constant operator");

  Workspace ws = make_workspace(build_assembly(opts));
  LinearSteadySystem sys;
  // All boundary conductances are temperature-independent here, so the
  // iterate passed to the boundary rewrite is arbitrary.
  const Vector temps(grid_.cell_count(), 0.0);
  update_boundary_terms(ws, temps, sys.rhs);
  sys.matrix = ws.matrix.to_csr();
  return sys;
}

numeric::Vector FvModel::cell_capacities() const {
  const std::size_t nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  Vector cap(grid_.cell_count(), 0.0);
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i) {
        const std::size_t c = grid_.index(i, j, k);
        cap[c] = rho_cp_[c] * grid_.cell_volume(i, j, k);
      }
  return cap;
}

double FvModel::energy_residual(const Vector& temps, const FvOptions& opts) const {
  double sources = std::accumulate(source_.begin(), source_.end(), 0.0);
  double outflow = 0.0;
  for_each_boundary_face(grid_, kx_, ky_, kz_, [&](const BoundaryFaceView& f) {
    const BoundaryCondition& bc = boundary_for(f.face, f.a, f.b);
    const std::size_t c = grid_.index(f.i, f.j, f.k);
    if (bc.kind == BoundaryKind::HeatFlux) {
      outflow -= bc.flux * f.area;
      return;
    }
    const double g = boundary_conductance(bc, f.area, f.half, f.k_cell, temps[c]);
    outflow += g * (temps[c] - bc.temperature);
  });
  (void)opts;
  return std::fabs(sources - outflow);
}

FvSolution FvModel::solve_steady_impl(const FvOptions& opts,
                                      std::shared_ptr<const FvAssembly> assembly) const {
  const std::size_t n = grid_.cell_count();
  // Check that the problem is bounded: at least one face must sink heat.
  bool has_sink = false;
  for_each_boundary_face(grid_, kx_, ky_, kz_, [&](const BoundaryFaceView& f) {
    const BoundaryCondition& bc = boundary_for(f.face, f.a, f.b);
    if (bc.kind != BoundaryKind::Adiabatic && bc.kind != BoundaryKind::HeatFlux)
      has_sink = true;
  });
  if (!has_sink)
    throw std::logic_error("FvModel::solve_steady: no temperature-referencing boundary");

  // Does any boundary depend on the iterate temperature?
  bool nonlinear = false;
  for_each_boundary_face(grid_, kx_, ky_, kz_, [&](const BoundaryFaceView& f) {
    const BoundaryCondition& bc = boundary_for(f.face, f.a, f.b);
    if (bc.kind == BoundaryKind::ConvectionRadiation ||
        bc.kind == BoundaryKind::NaturalConvection)
      nonlinear = true;
  });

  // Initial guess: first sink temperature + a few kelvin.
  double t_guess = 300.0;
  for_each_boundary_face(grid_, kx_, ky_, kz_, [&](const BoundaryFaceView& f) {
    const BoundaryCondition& bc = boundary_for(f.face, f.a, f.b);
    if (bc.kind != BoundaryKind::Adiabatic && bc.kind != BoundaryKind::HeatFlux)
      t_guess = bc.temperature + 10.0;
  });

  Vector temps(n, t_guess);
  FvSolution sol;
  static thread_local obs::CounterHandle steady_solves{"fv.steady_solves"};
  static thread_local obs::CounterHandle picard_passes{"fv.picard_passes"};
  static thread_local obs::CounterHandle cg_iterations{"fv.cg_iterations"};
  static thread_local obs::CounterHandle warmstart_hits{"fv.warmstart_hits"};
  steady_solves.add();
  obs::ScopedTimer span("fv.solve_steady");
  if (obs::enabled()) obs::current().gauge("fv.cells").set(static_cast<double>(n));
  // Fast path: symbolic structure + static coefficients assembled once;
  // Picard passes rewrite only boundary terms and warm-start CG from the
  // previous pass's temperature field. A caller-supplied shared assembly
  // skips the structural pass entirely (cache-hit path) — the workspace
  // copies the static values so the shared artifact stays immutable.
  if (!assembly) {
    assembly = build_assembly(opts);
    sol.structure_assemblies = 1;
  } else {
    if (assembly->structural_hash != structural_hash(opts))
      throw std::invalid_argument(
          "FvModel::solve_steady: shared assembly does not match this model "
          "(structural hash differs)");
    sol.structure_assemblies = 0;
  }
  Workspace ws = make_workspace(std::move(assembly));
  // Large grids precondition with the assembly's multigrid hierarchy; each
  // CG call refreshes the workspace from the pass's rewritten diagonal.
  std::optional<numeric::AmgWorkspace> amg;
  if (ws.assembly->amg) amg.emplace(*ws.assembly->amg);
  Vector rhs(n);
  const std::size_t passes = nonlinear ? opts.max_picard_iterations : 1;
  for (std::size_t it = 0; it < passes; ++it) {
    update_boundary_terms(ws, temps, rhs);
    const auto lin = numeric::conjugate_gradient(ws.matrix, rhs, opts.linear, &temps,
                                                 amg ? &*amg : nullptr);
    if (!lin.converged)
      throw std::runtime_error("FvModel::solve_steady: linear solver failed to converge");
    picard_passes.add();
    cg_iterations.add(lin.iterations);
    if (lin.iterations == 0) warmstart_hits.add();
    if (obs::enabled()) {
      // Per-pass convergence trace: how many CG iterations each Picard pass
      // cost and where its linear residual landed.
      obs::current()
          .gauge(obs::indexed_key("fv.picard", it + 1, "cg_iterations"))
          .set(static_cast<double>(lin.iterations));
      obs::current()
          .gauge(obs::indexed_key("fv.picard", it + 1, "residual"))
          .set(lin.residual);
    }
    sol.linear_iterations += lin.iterations;
    double delta = 0.0;
    for (std::size_t c = 0; c < n; ++c) delta = std::max(delta, std::fabs(lin.x[c] - temps[c]));
    temps = lin.x;
    sol.picard_iterations = it + 1;
    if (!nonlinear || delta < opts.picard_tolerance) {
      sol.converged = true;
      break;
    }
  }
  sol.temperatures = temps;
  sol.energy_residual = energy_residual(temps, opts);
  sol.max_temperature = numeric::max_element(temps);
  sol.min_temperature = numeric::min_element(temps);
  return sol;
}

FvSolution FvModel::solve_steady(const FvOptions& opts) const {
  return solve_steady_impl(opts, nullptr);
}

FvSolution FvModel::solve_steady(const std::shared_ptr<const FvAssembly>& assembly,
                                 const FvOptions& opts) const {
  if (!assembly)
    throw std::invalid_argument("FvModel::solve_steady: null shared assembly");
  return solve_steady_impl(opts, assembly);
}

FvTransientSolution FvModel::solve_transient(double t_end, double dt, double t_initial,
                                             const FvOptions& opts) const {
  return solve_transient(t_end, dt, Vector(grid_.cell_count(), t_initial), FvDrive{}, opts);
}

FvTransientSolution FvModel::solve_transient(double t_end, double dt,
                                             const Vector& initial_temperatures,
                                             const FvOptions& opts) const {
  return solve_transient(t_end, dt, initial_temperatures, FvDrive{}, opts);
}

FvTransientSolution FvModel::solve_transient(double t_end, double dt,
                                             const Vector& initial_temperatures,
                                             const FvDrive& drive, const FvOptions& opts,
                                             std::shared_ptr<const FvAssembly> assembly) const {
  dt = core::check_march_window("FvModel::solve_transient", t_end, dt);
  core::check_state_size("FvModel::solve_transient", initial_temperatures.size(),
                         grid_.cell_count());
  obs::ScopedTimer span("fv.solve_transient");
  FvTransientStepper stepper(*this, opts, std::move(assembly));
  stepper.set_drive(&drive);
  FvTransientSolution out;
  out.structure_assemblies = stepper.structure_assemblies();
  Vector temps = initial_temperatures;
  out.times.push_back(0.0);
  out.temperatures.push_back(temps);
  out.linear_iterations =
      core::march_fixed(stepper, temps, t_end, dt, [&](double t_next, const Vector& state) {
        out.times.push_back(t_next);
        out.temperatures.push_back(state);
      });
  return out;
}

double FvModel::region_max(const Vector& temps, const CellRange& r) const {
  check_range(r);
  double best = -1e300;
  for (std::size_t k = r.k0; k < r.k1; ++k)
    for (std::size_t j = r.j0; j < r.j1; ++j)
      for (std::size_t i = r.i0; i < r.i1; ++i)
        best = std::max(best, temps[grid_.index(i, j, k)]);
  return best;
}

double FvModel::region_mean(const Vector& temps, const CellRange& r) const {
  check_range(r);
  double acc = 0.0, vol = 0.0;
  for (std::size_t k = r.k0; k < r.k1; ++k)
    for (std::size_t j = r.j0; j < r.j1; ++j)
      for (std::size_t i = r.i0; i < r.i1; ++i) {
        const double v = grid_.cell_volume(i, j, k);
        acc += temps[grid_.index(i, j, k)] * v;
        vol += v;
      }
  return acc / vol;
}

}  // namespace aeropack::thermal
