// Lumped-parameter thermal resistance network (the paper's Fig. 4 shows this
// abstraction explicitly: "Resistive network model").
//
// Nodes are either diffusion nodes (unknown temperature, optional thermal
// capacitance) or boundary nodes (prescribed temperature). Conductors may be
// linear (constant W/K) or nonlinear (a callback returning conductance as a
// function of the two end temperatures — used for natural convection and
// radiation whose film coefficients depend on the unknown temperature).
//
// All temperatures are absolute [K].
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "numeric/dense.hpp"

namespace aeropack::thermal {

using NodeId = std::size_t;

/// Conductance [W/K] as a function of the two end temperatures [K].
using ConductanceFn = std::function<double(double, double)>;

struct SteadyOptions {
  std::size_t max_picard_iterations = 200;
  double tolerance = 1e-8;   ///< max |dT| between Picard iterations [K]
  double relaxation = 0.7;   ///< under-relaxation for nonlinear conductors
  double initial_guess = 0.0;  ///< 0 => mean boundary temperature
};

struct SteadySolution {
  numeric::Vector temperatures;  ///< all nodes, by NodeId [K]
  std::size_t iterations = 0;
  bool converged = false;
  double energy_residual = 0.0;  ///< |sum loads - sum boundary flows| [W]
};

struct TransientSolution {
  numeric::Vector times;
  std::vector<numeric::Vector> temperatures;  ///< per step, all nodes [K]
};

/// Time-varying drive for a transient network march: the lumped counterpart
/// of thermal::FvDrive. Boundary-node temperatures and heat loads are
/// re-resolved at the end time of every implicit step, so flight-phase
/// ambient histories and duty-cycled dissipation become first-class network
/// campaigns instead of frozen t=0 snapshots.
struct NetworkDrive {
  /// (t, node, stored) -> boundary temperature [K] for that node at time t;
  /// `stored` is the node's set_boundary_temperature value. Must be pure.
  /// Null = stored values throughout.
  std::function<double(double t, NodeId node, double stored)> boundary_temperature;
  /// Multiplier on every diffusion node's heat load at time t. Null = 1.
  std::function<double(double t)> load_scale;
};

class ThermalNetwork {
 public:
  /// Diffusion node with optional lumped capacitance [J/K].
  NodeId add_node(std::string name, double capacitance = 0.0);
  /// Boundary node at fixed temperature [K].
  NodeId add_boundary(std::string name, double temperature);

  /// Linear conductor, conductance [W/K] (must be > 0).
  void add_conductor(NodeId a, NodeId b, double conductance);
  /// Convenience: resistance [K/W].
  void add_resistor(NodeId a, NodeId b, double resistance);
  /// Nonlinear conductor; `g(Ta, Tb)` must return a conductance >= 0.
  void add_nonlinear_conductor(NodeId a, NodeId b, ConductanceFn g);
  /// Constant heat load [W] into a diffusion node.
  void add_heat_load(NodeId node, double watts);

  std::size_t node_count() const { return nodes_.size(); }
  const std::string& node_name(NodeId id) const;
  bool is_boundary(NodeId id) const;
  /// Change a boundary node's temperature (for sweeps).
  void set_boundary_temperature(NodeId id, double temperature);
  /// Change a node's heat load to a new total (for sweeps).
  void set_heat_load(NodeId node, double watts);

  SteadySolution solve_steady(const SteadyOptions& opts = {}) const;

  /// Implicit-Euler transient from a uniform or given initial state.
  /// Diffusion nodes with zero capacitance are treated as quasi-steady
  /// (arithmetic: tiny capacitance floor). Throws on dt <= 0.
  TransientSolution solve_transient(double t_end, double dt,
                                    const numeric::Vector& initial_temperatures,
                                    const SteadyOptions& opts = {}) const;

  /// Driver-aware transient: boundary temperatures and load scaling are
  /// re-resolved through `drive` at every step's end time. The undriven
  /// overloads are the drive-less special case of the same march.
  TransientSolution solve_transient(double t_end, double dt,
                                    const numeric::Vector& initial_temperatures,
                                    const NetworkDrive& drive,
                                    const SteadyOptions& opts = {}) const;

  /// Net heat flowing from node `id` into the network at a given solution [W].
  double node_heat_flow(NodeId id, const numeric::Vector& temperatures) const;

 private:
  friend class NetworkTransientStepper;

  struct Node {
    std::string name;
    bool boundary = false;
    double temperature = 0.0;   // boundaries only
    double capacitance = 0.0;   // diffusion only
    double load = 0.0;          // diffusion only
  };
  struct Conductor {
    NodeId a, b;
    double g = 0.0;        // linear value
    ConductanceFn fn;      // nonlinear if set
  };

  void check_node(NodeId id) const;
  /// Shared implicit-Euler march; `drive` null = the undriven overloads.
  TransientSolution march_transient(double t_end, double dt,
                                    const numeric::Vector& initial_temperatures,
                                    const SteadyOptions& opts, const NetworkDrive* drive) const;
  /// Solve the linear system for a fixed set of conductance values.
  numeric::Vector solve_linearized(const std::vector<double>& g_values) const;
  std::vector<double> evaluate_conductances(const numeric::Vector& temps) const;

  std::vector<Node> nodes_;
  std::vector<Conductor> conductors_;
};

/// Reusable driven implicit-Euler stepper over a ThermalNetwork — the
/// lumped-network implementation of the core::TransientSystem concept
/// (core/transient_engine.hpp). One step resolves boundary temperatures and
/// load scaling through the drive at the step's end time, then runs up to
/// five Picard passes of the dense implicit system (nonlinear conductors
/// linearize per pass); the returned cost is the Picard pass count, i.e.
/// the number of dense solves spent. Step size may change freely between
/// calls — capacitance/dt is assembled per pass — which is what the
/// adaptive mission march needs.
///
/// The referenced network must outlive the stepper and stay unmodified
/// while it is in use. The drive is copied; empty callbacks mean the
/// network's stored boundary temperatures and unscaled loads.
class NetworkTransientStepper {
 public:
  explicit NetworkTransientStepper(const ThermalNetwork& net, const SteadyOptions& opts = {},
                                   NetworkDrive drive = {});

  // --- core::TransientSystem concept ------------------------------------
  std::size_t state_size() const;
  /// One implicit Euler step of size `dt` ending at mission time `t_next`.
  /// `temps` holds every node (boundary entries are overwritten with the
  /// drive-resolved values at `t_next`); returns the Picard pass count.
  std::size_t step(numeric::Vector& temps, double t_next, double dt);
  /// Time derivative of every node at mission time `t`: the nodal balance
  /// (scaled load plus conductor flows, with boundary neighbours and
  /// nonlinear conductances resolved at `t`) over the node's capacitance;
  /// 0 on boundary nodes, which the drive prescribes.
  void rate(const numeric::Vector& temps, double t, numeric::Vector& out) const;
  /// Controller error metric: serial max-norm difference over the diffusion
  /// nodes [K]. Boundary nodes are prescribed by the drive, not integrated,
  /// so they carry no error and are skipped.
  double error_norm(const numeric::Vector& a, const numeric::Vector& b) const;

  /// Resolve the boundary-node entries of `temps` at mission time `t`
  /// (diffusion entries untouched) — the initial-state fixup every march
  /// applies before its first step.
  void apply_boundaries(double t, numeric::Vector& temps) const;

 private:
  double boundary_temp(double t, std::size_t i) const;

  const ThermalNetwork* net_;
  SteadyOptions opts_;
  NetworkDrive drive_;
  std::vector<std::ptrdiff_t> unknown_index_;
  std::size_t n_unknown_ = 0;
};

}  // namespace aeropack::thermal
