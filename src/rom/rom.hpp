// aeropack::rom — boundary-condition-independent compact thermal models
// (DELPHI-style multi-port reduction) extracted from any linear FvModel.
//
// The paper's Fig. 4 three-level flow (component → PCB → equipment) demands
// that a component-level model be usable inside a board- or equipment-level
// model without re-solving the component's 3-D field. This subsystem makes
// that executable: a RomSpec names the model's thermal ports (boundary film
// patches) and power maps (named source distributions); build_rom() solves
// deterministically ordered full-order snapshots — one unit boundary
// excitation per port, one unit power injection per map, plus optional
// step-response enrichment — and Galerkin-projects the FV operator onto the
// POD basis of those snapshots. The resulting RomModel evaluates steady and
// transient port responses on an r×r dense system (r ≈ 4–16) in
// microseconds, reports its own truncation-error estimate, and exposes the
// port-level conductance matrix so an equipment-level ThermalNetwork can
// embed the component as a handful of conductors (rom/network_embed.hpp).
//
// Determinism contract (the same one the FV/fem solvers carry): snapshot
// solves use the deterministic warm-startable CG, inner products use the
// fixed-chunk parallel_dot, and POD runs the serial Householder + QL
// eigensolver (numeric::eigen_symmetric) — so bases, reduced operators and
// every evaluated output are bit-identical across 1/2/8 threads and across
// ExecutionContexts. The rom ctest tier freezes that contract alongside
// golden port resistances and modal coefficients.
//
// All temperatures are absolute [K]; port powers are [W].
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "numeric/dense.hpp"
#include "numeric/solve_dense.hpp"
#include "thermal/fv.hpp"

namespace aeropack::rom {

/// One thermal port: a rectangular boundary patch coupled to its sink
/// through a fixed film coefficient. The sink temperature is the port's
/// input; the area-weighted surface temperature and the heat flow through
/// the film are its outputs.
struct RomPort {
  std::string name;
  thermal::Face face = thermal::Face::XMin;
  /// In-plane index box on `face`, in the same convention as
  /// FvModel::set_boundary_patch (the range along the face normal is
  /// ignored).
  thermal::CellRange patch;
  double h = 0.0;  ///< film coefficient to the sink [W/m^2 K], > 0
};

/// One named power map: a fixed spatial distribution of dissipation,
/// normalized to 1 W total. The map's input is its total power [W].
struct RomPowerMap {
  struct Region {
    thermal::CellRange cells;
    double weight = 1.0;  ///< share of the map's power in this box, > 0
  };
  std::string name;
  std::vector<Region> regions;
};

/// Port + power-map layout of a compact model. The builder rebases the
/// source model onto exactly this layout: every non-port boundary face is
/// adiabatic, so the reduced model is boundary-condition independent — port
/// sink temperatures and map powers are the only inputs.
struct RomSpec {
  std::vector<RomPort> ports;
  std::vector<RomPowerMap> maps;
};

/// Inputs of one evaluation: one sink temperature per port [K], one total
/// power per map [W]. Sizes must match the spec (std::invalid_argument).
struct RomInputs {
  numeric::Vector sink_temperatures;
  numeric::Vector map_powers;
};

struct RomOptions {
  /// Basis rank. Unset: smallest rank whose POD tail energy fraction is
  /// below `energy_tolerance`. Explicit values are validated — 0 or a rank
  /// beyond the usable (numerically independent) snapshot modes throws
  /// std::invalid_argument with the admissible range in the message.
  std::optional<std::size_t> rank;
  double energy_tolerance = 1e-10;
  /// Relative CG tolerance of the full-order snapshot solves. Tight by
  /// default so the full-rank ROM reproduces its training snapshots to
  /// near round-off.
  double snapshot_tolerance = 1e-12;
  /// Step-response enrichment: per power map, sample the implicit-Euler
  /// step response at `transient_samples_per_map` geometrically spaced
  /// times (dt, 2dt, 4dt, ...; dt = transient_time_scale). 0 keeps the
  /// steady snapshot set only. Requires transient_time_scale > 0 when set.
  std::size_t transient_samples_per_map = 0;
  double transient_time_scale = 0.0;  ///< [s]
  /// Options for the underlying FV operator (face-conductance scheme).
  thermal::FvOptions fv;
};

/// Steady response at one input vector.
struct RomSteadyResult {
  numeric::Vector port_temperatures;  ///< area-weighted port surface T [K]
  numeric::Vector port_heat_flows;    ///< heat INTO the body per port [W]
  numeric::Vector reduced_coordinates;
};

/// Implicit-Euler transient response (port temperatures per step).
struct RomTransientResult {
  numeric::Vector times;
  std::vector<numeric::Vector> port_temperatures;
  std::vector<numeric::Vector> reduced_states;
};

/// Build-time diagnostics.
struct RomBuildInfo {
  std::size_t snapshot_count = 0;       ///< snapshots fed to POD
  std::size_t snapshot_solves = 0;      ///< full-order CG solves performed
  std::size_t snapshot_cg_iterations = 0;
  std::size_t usable_rank = 0;          ///< numerically independent POD modes
  double build_seconds = 0.0;
};

/// The reduced model. Evaluation is const and thread-safe: concurrent
/// steady()/transient() calls from ScenarioService workers share no mutable
/// state. All data is dense and small except the basis (cells × rank), kept
/// for field reconstruction and verification.
class RomModel {
 public:
  std::size_t port_count() const { return port_names_.size(); }
  std::size_t map_count() const { return map_names_.size(); }
  std::size_t rank() const { return rank_; }
  std::size_t usable_rank() const { return info_.usable_rank; }
  std::size_t cell_count() const { return basis_.rows(); }
  const std::string& port_name(std::size_t p) const { return port_names_[p]; }
  const std::string& map_name(std::size_t m) const { return map_names_[m]; }
  const RomBuildInfo& build_info() const { return info_; }

  /// Steady port response: solve the rank×rank reduced system. Microseconds
  /// at compact ranks; bit-identical across threads and contexts.
  RomSteadyResult steady(const RomInputs& inputs) const;

  /// Implicit-Euler transient from a uniform initial temperature with
  /// inputs held constant. Same time-step semantics as the full solver
  /// (dt clamps to t_end; non-positive dt/t_end throws).
  RomTransientResult transient(const RomInputs& inputs, double t_end, double dt,
                               double t_initial) const;

  /// Lift reduced coordinates back to the full per-cell field [K].
  numeric::Vector reconstruct(const numeric::Vector& reduced_coordinates) const;
  /// Convenience: steady() + reconstruct().
  numeric::Vector steady_field(const RomInputs& inputs) const;

  /// Truncate to a smaller rank (the POD basis is nested, so this reuses
  /// the stored projections — no re-solve). Throws std::invalid_argument on
  /// rank 0 or rank > usable_rank().
  RomModel at_rank(std::size_t r) const;

  /// A-priori truncation-error estimate: sqrt of the POD tail energy
  /// fraction at the active rank — the share of snapshot "energy" the
  /// basis cannot represent. 0 means the basis spans every snapshot.
  double error_estimate() const;
  /// Worst relative L2 reconstruction error over the training snapshots at
  /// the active rank (exact, from stored projection coefficients).
  double training_residual() const;

  /// DELPHI-style port coupling: K(p,q) = ∂Q_p/∂T_sink_q [W/K], where Q_p
  /// is the heat INTO the body through port p. Symmetric, zero row sums
  /// (every watt entering a port leaves through another). The off-diagonal
  /// negated entries are the port-to-port conductances an equipment-level
  /// network embeds.
  numeric::Matrix port_conductance_matrix() const;
  /// W(p,m): fraction of map m's dissipation exiting through port p at
  /// steady state. Columns sum to 1.
  numeric::Matrix port_power_split() const;

  /// Full-precision basis/operator accessors for the determinism sweeps and
  /// the verification ladder (stored at usable_rank; leading blocks are the
  /// active model).
  const numeric::Matrix& basis() const { return basis_; }
  const numeric::Matrix& reduced_operator() const { return a_r_; }
  const numeric::Matrix& reduced_capacity() const { return c_r_; }
  const numeric::Matrix& input_map() const { return b_r_; }
  const numeric::Vector& pod_energies() const { return pod_energy_; }

 private:
  friend class RomBuilder;
  friend class RomTransientStepper;
  RomModel() = default;
  void activate_rank(std::size_t r);
  void check(const RomInputs& inputs) const;
  numeric::Vector reduced_rhs(const RomInputs& inputs) const;
  void port_outputs(const numeric::Vector& y, const RomInputs& inputs,
                    numeric::Vector& temperatures, numeric::Vector& heat_flows) const;

  std::vector<std::string> port_names_, map_names_;
  numeric::Matrix basis_;   // cells × usable_rank, POD modes (nested)
  numeric::Matrix a_r_;     // usable_rank × usable_rank, V^T A V
  numeric::Matrix c_r_;     // usable_rank × usable_rank, V^T C V
  numeric::Matrix b_r_;     // usable_rank × (ports + maps), V^T [g | q]
  numeric::Matrix port_temp_sel_;  // ports × usable_rank, s_p^T V
  numeric::Matrix port_film_sel_;  // ports × usable_rank, g_p^T V
  numeric::Vector port_film_total_;  // H_p = Σ g_p [W/K]
  numeric::Vector ones_proj_;        // V^T 1, for uniform initial states
  numeric::Vector pod_energy_;       // POD eigenvalues, descending
  numeric::Matrix train_coeff_;      // usable_rank × snapshots, V^T X
  numeric::Vector train_norm2_;      // per-snapshot squared L2 norms
  RomBuildInfo info_;

  std::size_t rank_ = 0;
  std::optional<numeric::CholeskyFactorization> steady_factor_;  // leading rank block
};

/// Extract a compact model. The source model provides geometry, materials
/// and internal interfaces; `spec` provides the complete boundary/source
/// layout (existing boundary conditions and sources on `model` are ignored).
/// Deterministic: bit-identical results at any thread count.
/// Throws std::invalid_argument on an invalid spec (no ports, non-positive
/// film coefficients or weights, duplicate names, overlapping port patches,
/// out-of-range ranks) and std::out_of_range on patches outside the grid.
RomModel build_rom(const thermal::FvModel& model, const RomSpec& spec,
                   const RomOptions& opts = {});

/// Configure a copy of the source model with concrete inputs: port patches
/// become fixed-h convection boundaries at the given sink temperatures, all
/// other faces adiabatic, and each map injects its power. This is the
/// full-order reference configuration the ROM approximates — the
/// verification ladder and benches solve it with FvModel::solve_steady.
void apply_inputs(thermal::FvModel& model, const RomSpec& spec, const RomInputs& inputs);

/// Validate `inputs` against `spec` (sizes); throws std::invalid_argument
/// naming the mismatch.
void check_inputs(const RomSpec& spec, const RomInputs& inputs);

/// Area-weighted port surface temperatures [K] of a full-order cell field —
/// the same output RomModel::steady() reports, computed from an FvModel
/// solution so ROM and full FV results are directly comparable.
numeric::Vector port_surface_temperatures(const thermal::FvModel& model, const RomSpec& spec,
                                          const numeric::Vector& cell_temperatures);

/// Heat INTO the body through each port [W] of a full-order cell field at
/// the given inputs — the FV-consistent counterpart of
/// RomSteadyResult::port_heat_flows, computed from the exact per-cell film
/// conductances of the rebased model.
numeric::Vector port_heat_flows(const thermal::FvModel& model, const RomSpec& spec,
                                const RomInputs& inputs,
                                const numeric::Vector& cell_temperatures,
                                const thermal::FvOptions& fv = {});

}  // namespace aeropack::rom
