#include "rom/rom.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "core/transient_engine.hpp"
#include "numeric/eigen.hpp"
#include "numeric/parallel.hpp"
#include "numeric/sparse.hpp"
#include "obs/registry.hpp"
#include "rom/transient.hpp"

namespace aeropack::rom {

using numeric::Matrix;
using numeric::Vector;
using thermal::BoundaryCondition;
using thermal::CellRange;
using thermal::Face;
using thermal::FvGrid;
using thermal::FvModel;

namespace {

/// Relative eigenvalue floor below which a POD mode is numerically
/// dependent on the preceding ones and unusable as a basis direction.
constexpr double kPodRankFloor = 1e-13;

/// Visit every boundary cell of a port: cell index, in-plane flattened
/// index (the set_boundary_patch convention) and face area of that cell.
template <typename Fn>
void for_each_port_cell(const FvGrid& g, const RomPort& port, Fn&& fn) {
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const CellRange& r = port.patch;
  switch (port.face) {
    case Face::XMin:
    case Face::XMax: {
      const std::size_t i = port.face == Face::XMin ? 0 : nx - 1;
      for (std::size_t k = r.k0; k < r.k1; ++k)
        for (std::size_t j = r.j0; j < r.j1; ++j)
          fn(g.index(i, j, k), j + ny * k, g.dy(j) * g.dz(k));
      break;
    }
    case Face::YMin:
    case Face::YMax: {
      const std::size_t j = port.face == Face::YMin ? 0 : ny - 1;
      for (std::size_t k = r.k0; k < r.k1; ++k)
        for (std::size_t i = r.i0; i < r.i1; ++i)
          fn(g.index(i, j, k), i + nx * k, g.dx(i) * g.dz(k));
      break;
    }
    case Face::ZMin:
    case Face::ZMax: {
      const std::size_t k = port.face == Face::ZMin ? 0 : nz - 1;
      for (std::size_t j = r.j0; j < r.j1; ++j)
        for (std::size_t i = r.i0; i < r.i1; ++i)
          fn(g.index(i, j, k), i + nx * j, g.dx(i) * g.dy(j));
      break;
    }
  }
}

void validate_spec(const FvGrid& grid, const RomSpec& spec) {
  if (spec.ports.empty())
    throw std::invalid_argument("rom: spec must declare at least one port");
  for (const RomPort& p : spec.ports) {
    if (p.name.empty()) throw std::invalid_argument("rom: port name must not be empty");
    if (!(p.h > 0.0))
      throw std::invalid_argument("rom: port '" + p.name +
                                  "' film coefficient must be > 0");
  }
  for (std::size_t a = 0; a < spec.ports.size(); ++a)
    for (std::size_t b = a + 1; b < spec.ports.size(); ++b)
      if (spec.ports[a].name == spec.ports[b].name)
        throw std::invalid_argument("rom: duplicate port name '" + spec.ports[a].name + "'");
  for (const RomPowerMap& m : spec.maps) {
    if (m.name.empty()) throw std::invalid_argument("rom: power-map name must not be empty");
    if (m.regions.empty())
      throw std::invalid_argument("rom: power map '" + m.name + "' has no regions");
    for (const RomPowerMap::Region& reg : m.regions)
      if (!(reg.weight > 0.0))
        throw std::invalid_argument("rom: power map '" + m.name +
                                    "' region weights must be > 0");
  }
  for (std::size_t a = 0; a < spec.maps.size(); ++a)
    for (std::size_t b = a + 1; b < spec.maps.size(); ++b)
      if (spec.maps[a].name == spec.maps[b].name)
        throw std::invalid_argument("rom: duplicate power-map name '" + spec.maps[a].name + "'");

  // Two ports claiming the same boundary cell would silently overwrite each
  // other's film patch — reject the layout outright.
  std::array<std::vector<const char*>, 6> claimed;
  claimed[0].assign(grid.ny() * grid.nz(), nullptr);
  claimed[1].assign(grid.ny() * grid.nz(), nullptr);
  claimed[2].assign(grid.nx() * grid.nz(), nullptr);
  claimed[3].assign(grid.nx() * grid.nz(), nullptr);
  claimed[4].assign(grid.nx() * grid.ny(), nullptr);
  claimed[5].assign(grid.nx() * grid.ny(), nullptr);
  for (const RomPort& p : spec.ports) {
    auto& face_claims = claimed[static_cast<std::size_t>(p.face)];
    for_each_port_cell(grid, p, [&](std::size_t, std::size_t plane_idx, double) {
      if (plane_idx >= face_claims.size())
        throw std::out_of_range("rom: port '" + p.name + "' patch outside the grid");
      if (face_claims[plane_idx] != nullptr)
        throw std::invalid_argument("rom: ports '" + std::string(face_claims[plane_idx]) +
                                    "' and '" + p.name + "' overlap on the same face");
      face_claims[plane_idx] = p.name.c_str();
    });
  }
}

/// Rebase a copy of the source model onto the spec's layout: no sources, no
/// inherited boundary overrides, every face adiabatic, port patches as
/// fixed-h films at the given sink temperatures.
void apply_layout(FvModel& model, const RomSpec& spec, const Vector& sink_temps) {
  model.clear_power();
  model.clear_boundary_overrides();
  for (Face f : {Face::XMin, Face::XMax, Face::YMin, Face::YMax, Face::ZMin, Face::ZMax})
    model.set_boundary(f, BoundaryCondition::adiabatic());
  for (std::size_t p = 0; p < spec.ports.size(); ++p)
    model.set_boundary_patch(spec.ports[p].face, spec.ports[p].patch,
                             BoundaryCondition::convection(spec.ports[p].h, sink_temps[p]));
}

void apply_map_power(FvModel& model, const RomPowerMap& map, double watts) {
  double total = 0.0;
  for (const RomPowerMap::Region& reg : map.regions) total += reg.weight;
  for (const RomPowerMap::Region& reg : map.regions)
    model.add_power(reg.cells, watts * reg.weight / total);
}

}  // namespace

void check_inputs(const RomSpec& spec, const RomInputs& inputs) {
  if (inputs.sink_temperatures.size() != spec.ports.size())
    throw std::invalid_argument(
        "rom: expected " + std::to_string(spec.ports.size()) +
        " port sink temperatures, got " + std::to_string(inputs.sink_temperatures.size()));
  if (inputs.map_powers.size() != spec.maps.size())
    throw std::invalid_argument("rom: expected " + std::to_string(spec.maps.size()) +
                                " map powers, got " +
                                std::to_string(inputs.map_powers.size()));
}

void apply_inputs(FvModel& model, const RomSpec& spec, const RomInputs& inputs) {
  validate_spec(model.grid(), spec);
  check_inputs(spec, inputs);
  apply_layout(model, spec, inputs.sink_temperatures);
  for (std::size_t m = 0; m < spec.maps.size(); ++m)
    if (inputs.map_powers[m] != 0.0) apply_map_power(model, spec.maps[m], inputs.map_powers[m]);
}

Vector port_surface_temperatures(const FvModel& model, const RomSpec& spec,
                                 const Vector& cell_temperatures) {
  validate_spec(model.grid(), spec);
  if (cell_temperatures.size() != model.grid().cell_count())
    throw std::invalid_argument("rom: field size does not match the model grid");
  Vector temps(spec.ports.size(), 0.0);
  for (std::size_t p = 0; p < spec.ports.size(); ++p) {
    double acc = 0.0, total_area = 0.0;
    for_each_port_cell(model.grid(), spec.ports[p],
                       [&](std::size_t cell, std::size_t, double area) {
                         acc += area * cell_temperatures[cell];
                         total_area += area;
                       });
    temps[p] = acc / total_area;
  }
  return temps;
}

Vector port_heat_flows(const FvModel& model, const RomSpec& spec, const RomInputs& inputs,
                       const Vector& cell_temperatures, const thermal::FvOptions& fv) {
  validate_spec(model.grid(), spec);
  check_inputs(spec, inputs);
  if (cell_temperatures.size() != model.grid().cell_count())
    throw std::invalid_argument("rom: field size does not match the model grid");
  // Recover each port's per-cell film conductance column by unit-sink RHS
  // differencing on a rebased copy (two assemblies per port, no solves).
  FvModel work = model;
  apply_layout(work, spec, Vector(spec.ports.size(), 0.0));
  const thermal::LinearSteadySystem base = work.linearize_steady(fv);
  Vector flows(spec.ports.size(), 0.0);
  for (std::size_t p = 0; p < spec.ports.size(); ++p) {
    work.set_boundary_patch(spec.ports[p].face, spec.ports[p].patch,
                            BoundaryCondition::convection(spec.ports[p].h, 1.0));
    const thermal::LinearSteadySystem excited = work.linearize_steady(fv);
    work.set_boundary_patch(spec.ports[p].face, spec.ports[p].patch,
                            BoundaryCondition::convection(spec.ports[p].h, 0.0));
    double q = 0.0;
    for (std::size_t c = 0; c < cell_temperatures.size(); ++c) {
      const double g = excited.rhs[c] - base.rhs[c];
      q += g * (inputs.sink_temperatures[p] - cell_temperatures[c]);
    }
    flows[p] = q;
  }
  return flows;
}

// --- RomBuilder ---------------------------------------------------------------

/// Friend of RomModel: runs the snapshot → POD → Galerkin pipeline.
class RomBuilder {
 public:
  static RomModel build(const FvModel& source, const RomSpec& spec, const RomOptions& opts);
};

RomModel RomBuilder::build(const FvModel& source, const RomSpec& spec, const RomOptions& opts) {
  static thread_local obs::CounterHandle builds{"rom.builds"};
  static thread_local obs::CounterHandle snapshot_solves{"rom.snapshot_solves"};
  static thread_local obs::CounterHandle snapshot_cg{"rom.snapshot_cg_iterations"};
  static thread_local obs::CounterHandle basis_vectors{"rom.basis_vectors"};
  // Wall-clock build cost in integer microseconds. Deliberately a counter so
  // it lands in bench reports next to the solve counters — but it is NOT
  // deterministic, so tools/check_report.py excludes the rom.snapshot_build.
  // prefix when freezing expectations (like the scheduling counters).
  static thread_local obs::CounterHandle build_elapsed{"rom.snapshot_build.elapsed_us"};
  builds.add();
  obs::ScopedTimer span("rom.build");
  const auto t0 = std::chrono::steady_clock::now();

  validate_spec(source.grid(), spec);
  if (opts.rank && *opts.rank == 0)
    throw std::invalid_argument("rom: RomOptions::rank must be at least 1 (got 0)");
  if (opts.transient_samples_per_map > 0 && !(opts.transient_time_scale > 0.0))
    throw std::invalid_argument(
        "rom: transient snapshot enrichment requires transient_time_scale > 0");

  const std::size_t n_ports = spec.ports.size();
  const std::size_t n_maps = spec.maps.size();
  const std::size_t n = source.grid().cell_count();

  // 1. Rebase a working copy onto the port layout and extract the constant
  //    operator plus one right-hand-side column per input.
  FvModel work = source;
  apply_layout(work, spec, Vector(n_ports, 0.0));
  const thermal::LinearSteadySystem base = work.linearize_steady(opts.fv);

  std::vector<Vector> input_cols;  // ports then maps, spec order
  input_cols.reserve(n_ports + n_maps);
  for (std::size_t p = 0; p < n_ports; ++p) {
    work.set_boundary_patch(spec.ports[p].face, spec.ports[p].patch,
                            BoundaryCondition::convection(spec.ports[p].h, 1.0));
    thermal::LinearSteadySystem excited = work.linearize_steady(opts.fv);
    numeric::axpy(-1.0, base.rhs, excited.rhs);
    input_cols.push_back(std::move(excited.rhs));
    work.set_boundary_patch(spec.ports[p].face, spec.ports[p].patch,
                            BoundaryCondition::convection(spec.ports[p].h, 0.0));
  }
  for (std::size_t m = 0; m < n_maps; ++m) {
    apply_map_power(work, spec.maps[m], 1.0);
    thermal::LinearSteadySystem powered = work.linearize_steady(opts.fv);
    numeric::axpy(-1.0, base.rhs, powered.rhs);
    input_cols.push_back(std::move(powered.rhs));
    work.clear_power();
  }

  // 2. Snapshots: the exact steady response of each unit input, then the
  //    optional step-response enrichment per power map. Order is fixed, so
  //    the POD problem — and everything downstream — is deterministic.
  numeric::IterativeOptions cg = opts.fv.linear;
  cg.tolerance = opts.snapshot_tolerance;
  RomBuildInfo info;
  std::vector<Vector> snapshots;
  snapshots.reserve(input_cols.size() +
                    n_maps * opts.transient_samples_per_map);
  {
    obs::ScopedTimer snap_span("rom.snapshots");
    for (const Vector& b : input_cols) {
      const auto lin = numeric::conjugate_gradient(base.matrix, b, cg);
      if (!lin.converged)
        throw std::runtime_error("rom: snapshot solve failed to converge");
      snapshot_solves.add();
      snapshot_cg.add(lin.iterations);
      info.snapshot_solves += 1;
      info.snapshot_cg_iterations += lin.iterations;
      snapshots.push_back(lin.x);
    }
    if (opts.transient_samples_per_map > 0) {
      const Vector cap = work.cell_capacities();
      const double inv_dt = 1.0 / opts.transient_time_scale;
      numeric::CsrMatrix euler = base.matrix;  // A + C/dt on the diagonal
      {
        const auto& row_ptr = euler.row_ptr();
        const auto& col_idx = euler.col_idx();
        auto& values = euler.values();
        for (std::size_t row = 0; row < n; ++row)
          for (std::size_t e = row_ptr[row]; e < row_ptr[row + 1]; ++e)
            if (col_idx[e] == row) values[e] += cap[row] * inv_dt;
      }
      for (std::size_t m = 0; m < n_maps; ++m) {
        const Vector& q = input_cols[n_ports + m];
        Vector x(n, 0.0);  // step response from the all-zero-sink state
        std::size_t next_sample = 1;
        std::size_t recorded = 0;
        for (std::size_t step = 1; recorded < opts.transient_samples_per_map; ++step) {
          Vector rhs(n);
          for (std::size_t c = 0; c < n; ++c) rhs[c] = cap[c] * inv_dt * x[c] + q[c];
          const auto lin = numeric::conjugate_gradient(euler, rhs, cg, &x);
          if (!lin.converged)
            throw std::runtime_error("rom: transient snapshot solve failed to converge");
          snapshot_solves.add();
          snapshot_cg.add(lin.iterations);
          info.snapshot_solves += 1;
          info.snapshot_cg_iterations += lin.iterations;
          x = lin.x;
          if (step == next_sample) {  // dt, 2dt, 4dt, ...
            snapshots.push_back(x);
            next_sample *= 2;
            ++recorded;
          }
        }
      }
    }
  }
  const std::size_t n_snap = snapshots.size();
  info.snapshot_count = n_snap;

  // 3. Deterministic POD: Gram matrix with the fixed-chunk parallel_dot,
  //    serial Householder + QL eigensolve, modes assembled in
  //    descending-energy order and tightened with one modified Gram-Schmidt
  //    pass.
  std::vector<Vector> modes;
  Vector energies;
  {
    obs::ScopedTimer pod_span("rom.pod");
    Matrix gram(n_snap, n_snap);
    for (std::size_t i = 0; i < n_snap; ++i)
      for (std::size_t j = i; j < n_snap; ++j) {
        const double g = numeric::parallel_dot(snapshots[i], snapshots[j]);
        gram(i, j) = g;
        gram(j, i) = g;
      }
    const numeric::EigenResult eig = numeric::eigen_symmetric(gram);
    double lambda_max = 0.0;
    for (double lambda : eig.eigenvalues) lambda_max = std::max(lambda_max, lambda);
    if (!(lambda_max > 0.0))
      throw std::runtime_error("rom: snapshot set is identically zero");
    // eigen_symmetric returns ascending order; walk from the top. Every
    // positive eigenvalue is tracked as energy (the tail-energy estimate
    // needs the full spectrum); only eigenvalues above the relative floor
    // become basis directions, and since the walk is descending the first
    // floored one closes the basis.
    for (std::size_t k = n_snap; k-- > 0;) {
      const double lambda = eig.eigenvalues[k];
      if (lambda <= 0.0) break;
      energies.push_back(lambda);
      if (lambda <= lambda_max * kPodRankFloor) continue;
      Vector v(n, 0.0);
      for (std::size_t j = 0; j < n_snap; ++j)
        if (eig.eigenvectors(j, k) != 0.0)
          numeric::parallel_axpy(eig.eigenvectors(j, k), snapshots[j], v);
      const double scale = 1.0 / std::sqrt(lambda);
      numeric::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) v[c] *= scale;
      });
      modes.push_back(std::move(v));
    }
    // One modified Gram-Schmidt pass tightens the near-orthonormal modes to
    // round-off, keeping the basis nested (mode k only changes within
    // span(modes[0..k])) so at_rank() truncation stays exact.
    for (std::size_t k = 0; k < modes.size(); ++k) {
      for (std::size_t i = 0; i < k; ++i) {
        const double proj = numeric::parallel_dot(modes[i], modes[k]);
        numeric::parallel_axpy(-proj, modes[i], modes[k]);
      }
      const double nrm = numeric::parallel_norm2(modes[k]);
      numeric::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) modes[k][c] /= nrm;
      });
    }
  }
  const std::size_t usable = modes.size();
  info.usable_rank = usable;

  // Basis rank: explicit (validated) or smallest tail-energy-tolerant rank.
  std::size_t rank;
  if (opts.rank) {
    if (*opts.rank > usable)
      throw std::invalid_argument(
          "rom: requested rank " + std::to_string(*opts.rank) + " exceeds the usable basis rank " +
          std::to_string(usable) + " (" + std::to_string(n_snap) +
          " snapshots); enrich the snapshot set or lower the rank");
    rank = *opts.rank;
  } else {
    const double total = std::accumulate(energies.begin(), energies.end(), 0.0);
    rank = usable;
    double tail = total;
    for (std::size_t k = 0; k < usable; ++k) {
      tail -= energies[k];
      if (tail <= opts.energy_tolerance * total) {
        rank = k + 1;
        break;
      }
    }
  }

  // 4. Galerkin projection of the operator, capacity, inputs and outputs.
  RomModel rom;
  {
    obs::ScopedTimer proj_span("rom.project");
    rom.basis_ = Matrix(n, usable);
    for (std::size_t k = 0; k < usable; ++k)
      for (std::size_t c = 0; c < n; ++c) rom.basis_(c, k) = modes[k][c];

    rom.a_r_ = Matrix(usable, usable);
    Vector work_vec(n);
    for (std::size_t k = 0; k < usable; ++k) {
      base.matrix.multiply(modes[k], work_vec);
      for (std::size_t i = 0; i < usable; ++i)
        rom.a_r_(i, k) = numeric::parallel_dot(modes[i], work_vec);
    }
    rom.a_r_.symmetrize();

    const Vector cap = work.cell_capacities();
    rom.c_r_ = Matrix(usable, usable);
    for (std::size_t k = 0; k < usable; ++k) {
      for (std::size_t c = 0; c < n; ++c) work_vec[c] = cap[c] * modes[k][c];
      for (std::size_t i = 0; i < usable; ++i)
        rom.c_r_(i, k) = numeric::parallel_dot(modes[i], work_vec);
    }
    rom.c_r_.symmetrize();

    rom.b_r_ = Matrix(usable, n_ports + n_maps);
    for (std::size_t j = 0; j < input_cols.size(); ++j)
      for (std::size_t k = 0; k < usable; ++k)
        rom.b_r_(k, j) = numeric::parallel_dot(modes[k], input_cols[j]);

    rom.port_temp_sel_ = Matrix(n_ports, usable);
    rom.port_film_sel_ = Matrix(n_ports, usable);
    rom.port_film_total_.assign(n_ports, 0.0);
    for (std::size_t p = 0; p < n_ports; ++p) {
      double total_area = 0.0;
      for_each_port_cell(source.grid(), spec.ports[p],
                         [&](std::size_t, std::size_t, double area) { total_area += area; });
      for (std::size_t k = 0; k < usable; ++k) {
        double sel = 0.0;
        for_each_port_cell(source.grid(), spec.ports[p],
                           [&](std::size_t cell, std::size_t, double area) {
                             sel += area / total_area * modes[k][cell];
                           });
        rom.port_temp_sel_(p, k) = sel;
        rom.port_film_sel_(p, k) = numeric::parallel_dot(input_cols[p], modes[k]);
      }
      rom.port_film_total_[p] =
          std::accumulate(input_cols[p].begin(), input_cols[p].end(), 0.0);
    }

    const Vector ones(n, 1.0);
    rom.ones_proj_.assign(usable, 0.0);
    for (std::size_t k = 0; k < usable; ++k)
      rom.ones_proj_[k] = numeric::parallel_dot(modes[k], ones);

    rom.train_coeff_ = Matrix(usable, n_snap);
    rom.train_norm2_.assign(n_snap, 0.0);
    for (std::size_t j = 0; j < n_snap; ++j) {
      rom.train_norm2_[j] = numeric::parallel_dot(snapshots[j], snapshots[j]);
      for (std::size_t k = 0; k < usable; ++k)
        rom.train_coeff_(k, j) = numeric::parallel_dot(modes[k], snapshots[j]);
    }
  }

  rom.pod_energy_ = energies;
  for (const RomPort& p : spec.ports) rom.port_names_.push_back(p.name);
  for (const RomPowerMap& m : spec.maps) rom.map_names_.push_back(m.name);
  info.build_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  rom.info_ = info;
  rom.activate_rank(rank);

  static thread_local obs::GaugeHandle rank_gauge{"rom.basis_rank"};
  static thread_local obs::GaugeHandle snap_gauge{"rom.snapshots"};
  basis_vectors.add(rank);
  rank_gauge.set(static_cast<double>(rank));
  snap_gauge.set(static_cast<double>(n_snap));
  build_elapsed.add(static_cast<std::uint64_t>(info.build_seconds * 1e6));
  return rom;
}

RomModel build_rom(const FvModel& model, const RomSpec& spec, const RomOptions& opts) {
  return RomBuilder::build(model, spec, opts);
}

// --- RomModel -----------------------------------------------------------------

void RomModel::activate_rank(std::size_t r) {
  if (r == 0) throw std::invalid_argument("rom: rank must be at least 1 (got 0)");
  if (r > info_.usable_rank)
    throw std::invalid_argument("rom: rank " + std::to_string(r) +
                                " exceeds the usable basis rank " +
                                std::to_string(info_.usable_rank));
  rank_ = r;
  Matrix a(r, r);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < r; ++j) a(i, j) = a_r_(i, j);
  steady_factor_.emplace(a);
}

RomModel RomModel::at_rank(std::size_t r) const {
  RomModel copy = *this;
  copy.activate_rank(r);
  return copy;
}

void RomModel::check(const RomInputs& inputs) const {
  if (inputs.sink_temperatures.size() != port_count())
    throw std::invalid_argument("RomModel: expected " + std::to_string(port_count()) +
                                " port sink temperatures, got " +
                                std::to_string(inputs.sink_temperatures.size()));
  if (inputs.map_powers.size() != map_count())
    throw std::invalid_argument("RomModel: expected " + std::to_string(map_count()) +
                                " map powers, got " +
                                std::to_string(inputs.map_powers.size()));
}

Vector RomModel::reduced_rhs(const RomInputs& inputs) const {
  Vector rhs(rank_, 0.0);
  const std::size_t p_count = port_count();
  for (std::size_t k = 0; k < rank_; ++k) {
    double acc = 0.0;
    for (std::size_t p = 0; p < p_count; ++p)
      acc += b_r_(k, p) * inputs.sink_temperatures[p];
    for (std::size_t m = 0; m < map_count(); ++m)
      acc += b_r_(k, p_count + m) * inputs.map_powers[m];
    rhs[k] = acc;
  }
  return rhs;
}

void RomModel::port_outputs(const Vector& y, const RomInputs& inputs,
                            Vector& temperatures, Vector& heat_flows) const {
  const std::size_t p_count = port_count();
  temperatures.assign(p_count, 0.0);
  heat_flows.assign(p_count, 0.0);
  for (std::size_t p = 0; p < p_count; ++p) {
    double t = 0.0, film = 0.0;
    for (std::size_t k = 0; k < rank_; ++k) {
      t += port_temp_sel_(p, k) * y[k];
      film += port_film_sel_(p, k) * y[k];
    }
    temperatures[p] = t;
    heat_flows[p] = port_film_total_[p] * inputs.sink_temperatures[p] - film;
  }
}

RomSteadyResult RomModel::steady(const RomInputs& inputs) const {
  static thread_local obs::CounterHandle evals{"rom.steady_evals"};
  check(inputs);
  evals.add();
  RomSteadyResult out;
  out.reduced_coordinates = steady_factor_->solve(reduced_rhs(inputs));
  port_outputs(out.reduced_coordinates, inputs, out.port_temperatures, out.port_heat_flows);
  return out;
}

RomTransientResult RomModel::transient(const RomInputs& inputs, double t_end, double dt,
                                       double t_initial) const {
  check(inputs);
  // Same clamp semantics as FvModel::solve_transient.
  dt = core::check_march_window("RomModel::transient", t_end, dt);
  RomTransientStepper stepper(*this, inputs);
  Vector y = stepper.initial_state(t_initial);

  RomTransientResult out;
  Vector temps, flows;
  out.times.push_back(0.0);
  port_outputs(y, inputs, temps, flows);
  out.port_temperatures.push_back(temps);
  out.reduced_states.push_back(y);
  core::march_fixed(stepper, y, t_end, dt, [&](double t_next, const Vector& state) {
    out.times.push_back(t_next);
    port_outputs(state, inputs, temps, flows);
    out.port_temperatures.push_back(temps);
    out.reduced_states.push_back(state);
  });
  return out;
}

Vector RomModel::reconstruct(const Vector& reduced_coordinates) const {
  if (reduced_coordinates.size() != rank_)
    throw std::invalid_argument("RomModel::reconstruct: expected " + std::to_string(rank_) +
                                " reduced coordinates, got " +
                                std::to_string(reduced_coordinates.size()));
  const std::size_t n = basis_.rows();
  Vector field(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    double acc = 0.0;
    for (std::size_t k = 0; k < rank_; ++k) acc += basis_(c, k) * reduced_coordinates[k];
    field[c] = acc;
  }
  return field;
}

Vector RomModel::steady_field(const RomInputs& inputs) const {
  return reconstruct(steady(inputs).reduced_coordinates);
}

double RomModel::error_estimate() const {
  double total = 0.0, tail = 0.0;
  for (std::size_t k = 0; k < pod_energy_.size(); ++k) {
    total += pod_energy_[k];
    if (k >= rank_) tail += pod_energy_[k];
  }
  return total > 0.0 ? std::sqrt(tail / total) : 0.0;
}

double RomModel::training_residual() const {
  double worst = 0.0;
  for (std::size_t j = 0; j < train_norm2_.size(); ++j) {
    if (train_norm2_[j] <= 0.0) continue;
    double captured = 0.0;
    for (std::size_t k = 0; k < rank_; ++k)
      captured += train_coeff_(k, j) * train_coeff_(k, j);
    const double err2 = std::max(0.0, train_norm2_[j] - captured);
    worst = std::max(worst, std::sqrt(err2 / train_norm2_[j]));
  }
  return worst;
}

Matrix RomModel::port_conductance_matrix() const {
  const std::size_t p_count = port_count();
  Matrix k(p_count, p_count);
  for (std::size_t q = 0; q < p_count; ++q) {
    Vector col(rank_);
    for (std::size_t i = 0; i < rank_; ++i) col[i] = b_r_(i, q);
    const Vector z = steady_factor_->solve(col);
    for (std::size_t p = 0; p < p_count; ++p) {
      double coupling = 0.0;
      for (std::size_t i = 0; i < rank_; ++i) coupling += port_film_sel_(p, i) * z[i];
      k(p, q) = (p == q ? port_film_total_[p] : 0.0) - coupling;
    }
  }
  k.symmetrize();
  return k;
}

Matrix RomModel::port_power_split() const {
  const std::size_t p_count = port_count();
  Matrix w(p_count, map_count());
  for (std::size_t m = 0; m < map_count(); ++m) {
    Vector col(rank_);
    for (std::size_t i = 0; i < rank_; ++i) col[i] = b_r_(i, p_count + m);
    const Vector z = steady_factor_->solve(col);
    for (std::size_t p = 0; p < p_count; ++p) {
      double share = 0.0;
      for (std::size_t i = 0; i < rank_; ++i) share += port_film_sel_(p, i) * z[i];
      w(p, m) = share;
    }
  }
  return w;
}

}  // namespace aeropack::rom
