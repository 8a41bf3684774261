#include "thermal/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/transient_engine.hpp"
#include "numeric/solve_dense.hpp"
#include "obs/registry.hpp"

namespace aeropack::thermal {

using numeric::Matrix;
using numeric::Vector;

NodeId ThermalNetwork::add_node(std::string name, double capacitance) {
  if (capacitance < 0.0) throw std::invalid_argument("add_node: negative capacitance");
  nodes_.push_back({std::move(name), false, 0.0, capacitance, 0.0});
  return nodes_.size() - 1;
}

NodeId ThermalNetwork::add_boundary(std::string name, double temperature) {
  if (temperature <= 0.0)
    throw std::invalid_argument("add_boundary: temperature must be absolute (K) and > 0");
  nodes_.push_back({std::move(name), true, temperature, 0.0, 0.0});
  return nodes_.size() - 1;
}

void ThermalNetwork::check_node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("ThermalNetwork: bad node id");
}

void ThermalNetwork::add_conductor(NodeId a, NodeId b, double conductance) {
  check_node(a);
  check_node(b);
  if (a == b) throw std::invalid_argument("add_conductor: self loop");
  if (conductance <= 0.0) throw std::invalid_argument("add_conductor: conductance must be > 0");
  conductors_.push_back({a, b, conductance, nullptr});
}

void ThermalNetwork::add_resistor(NodeId a, NodeId b, double resistance) {
  if (resistance <= 0.0) throw std::invalid_argument("add_resistor: resistance must be > 0");
  add_conductor(a, b, 1.0 / resistance);
}

void ThermalNetwork::add_nonlinear_conductor(NodeId a, NodeId b, ConductanceFn g) {
  check_node(a);
  check_node(b);
  if (a == b) throw std::invalid_argument("add_nonlinear_conductor: self loop");
  if (!g) throw std::invalid_argument("add_nonlinear_conductor: empty callback");
  conductors_.push_back({a, b, 0.0, std::move(g)});
}

void ThermalNetwork::add_heat_load(NodeId node, double watts) {
  check_node(node);
  if (nodes_[node].boundary) throw std::invalid_argument("add_heat_load: node is a boundary");
  nodes_[node].load += watts;
}

void ThermalNetwork::set_heat_load(NodeId node, double watts) {
  check_node(node);
  if (nodes_[node].boundary) throw std::invalid_argument("set_heat_load: node is a boundary");
  nodes_[node].load = watts;
}

const std::string& ThermalNetwork::node_name(NodeId id) const {
  check_node(id);
  return nodes_[id].name;
}

bool ThermalNetwork::is_boundary(NodeId id) const {
  check_node(id);
  return nodes_[id].boundary;
}

void ThermalNetwork::set_boundary_temperature(NodeId id, double temperature) {
  check_node(id);
  if (!nodes_[id].boundary)
    throw std::invalid_argument("set_boundary_temperature: not a boundary node");
  if (temperature <= 0.0) throw std::invalid_argument("set_boundary_temperature: T must be > 0");
  nodes_[id].temperature = temperature;
}

std::vector<double> ThermalNetwork::evaluate_conductances(const Vector& temps) const {
  std::vector<double> g(conductors_.size());
  for (std::size_t i = 0; i < conductors_.size(); ++i) {
    const Conductor& c = conductors_[i];
    if (c.fn) {
      const double val = c.fn(temps[c.a], temps[c.b]);
      if (!(val >= 0.0) || !std::isfinite(val))
        throw std::runtime_error("ThermalNetwork: nonlinear conductor returned invalid value");
      g[i] = val;
    } else {
      g[i] = c.g;
    }
  }
  return g;
}

Vector ThermalNetwork::solve_linearized(const std::vector<double>& g_values) const {
  // Map diffusion nodes to unknown indices.
  std::vector<std::ptrdiff_t> unknown_index(nodes_.size(), -1);
  std::size_t n_unknown = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!nodes_[i].boundary) unknown_index[i] = static_cast<std::ptrdiff_t>(n_unknown++);
  if (n_unknown == 0) {
    Vector all(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) all[i] = nodes_[i].temperature;
    return all;
  }

  Matrix g(n_unknown, n_unknown);
  Vector rhs(n_unknown, 0.0);
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!nodes_[i].boundary) rhs[static_cast<std::size_t>(unknown_index[i])] = nodes_[i].load;

  for (std::size_t ci = 0; ci < conductors_.size(); ++ci) {
    const Conductor& c = conductors_[ci];
    const double gv = g_values[ci];
    if (gv == 0.0) continue;
    const std::ptrdiff_t ia = unknown_index[c.a];
    const std::ptrdiff_t ib = unknown_index[c.b];
    if (ia >= 0 && ib >= 0) {
      const auto ua = static_cast<std::size_t>(ia);
      const auto ub = static_cast<std::size_t>(ib);
      g(ua, ua) += gv;
      g(ub, ub) += gv;
      g(ua, ub) -= gv;
      g(ub, ua) -= gv;
    } else if (ia >= 0) {
      const auto ua = static_cast<std::size_t>(ia);
      g(ua, ua) += gv;
      rhs[ua] += gv * nodes_[c.b].temperature;
    } else if (ib >= 0) {
      const auto ub = static_cast<std::size_t>(ib);
      g(ub, ub) += gv;
      rhs[ub] += gv * nodes_[c.a].temperature;
    }
  }

  const Vector x = numeric::CholeskyFactorization(g).solve(rhs);
  Vector all(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    all[i] = nodes_[i].boundary ? nodes_[i].temperature
                                : x[static_cast<std::size_t>(unknown_index[i])];
  return all;
}

SteadySolution ThermalNetwork::solve_steady(const SteadyOptions& opts) const {
  if (nodes_.empty()) throw std::logic_error("solve_steady: empty network");
  // Initial guess: mean boundary temperature, or user override.
  double t0 = opts.initial_guess;
  if (t0 <= 0.0) {
    double acc = 0.0;
    std::size_t nb = 0;
    for (const Node& n : nodes_)
      if (n.boundary) {
        acc += n.temperature;
        ++nb;
      }
    t0 = (nb > 0) ? acc / static_cast<double>(nb) : 300.0;
  }
  Vector temps(nodes_.size(), t0);
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].boundary) temps[i] = nodes_[i].temperature;

  const bool nonlinear =
      std::any_of(conductors_.begin(), conductors_.end(),
                  [](const Conductor& c) { return static_cast<bool>(c.fn); });

  static thread_local obs::CounterHandle steady_solves{"network.steady_solves"};
  static thread_local obs::CounterHandle picard_passes{"network.picard_passes"};
  steady_solves.add();
  obs::ScopedTimer span("network.solve_steady");

  SteadySolution sol;
  const std::size_t max_it = nonlinear ? opts.max_picard_iterations : 1;
  for (std::size_t it = 0; it < max_it; ++it) {
    picard_passes.add();
    const auto g = evaluate_conductances(temps);
    const Vector next = solve_linearized(g);
    double delta = 0.0;
    for (std::size_t i = 0; i < temps.size(); ++i)
      delta = std::max(delta, std::fabs(next[i] - temps[i]));
    sol.iterations = it + 1;
    if (!nonlinear || delta < opts.tolerance) {
      // Linear problems solve exactly in one pass; converged nonlinear
      // iterates take the unrelaxed solution so conductances and
      // temperatures are self-consistent.
      temps = next;
      sol.converged = true;
      break;
    }
    for (std::size_t i = 0; i < temps.size(); ++i)
      temps[i] = temps[i] + opts.relaxation * (next[i] - temps[i]);
  }

  sol.temperatures = temps;
  // Energy residual: total load vs heat absorbed by boundaries.
  double loads = 0.0;
  for (const Node& n : nodes_)
    if (!n.boundary) loads += n.load;
  double boundary_in = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].boundary) boundary_in += node_heat_flow(i, temps);
  sol.energy_residual = std::fabs(loads + boundary_in);
  return sol;
}

double ThermalNetwork::node_heat_flow(NodeId id, const Vector& temps) const {
  check_node(id);
  const auto g = evaluate_conductances(temps);
  double flow = 0.0;  // positive = heat leaving `id` into the network
  for (std::size_t ci = 0; ci < conductors_.size(); ++ci) {
    const Conductor& c = conductors_[ci];
    if (c.a == id) flow += g[ci] * (temps[c.a] - temps[c.b]);
    if (c.b == id) flow += g[ci] * (temps[c.b] - temps[c.a]);
  }
  return flow;
}

// --- NetworkTransientStepper ------------------------------------------------

namespace {
constexpr double kCapFloor = 1e-6;  // quasi-steady nodes get a tiny capacitance [J/K]
}  // namespace

NetworkTransientStepper::NetworkTransientStepper(const ThermalNetwork& net,
                                                 const SteadyOptions& opts, NetworkDrive drive)
    : net_(&net),
      opts_(opts),
      drive_(std::move(drive)),
      unknown_index_(net.nodes_.size(), -1) {
  for (std::size_t i = 0; i < net.nodes_.size(); ++i)
    if (!net.nodes_[i].boundary) unknown_index_[i] = static_cast<std::ptrdiff_t>(n_unknown_++);
}

std::size_t NetworkTransientStepper::state_size() const { return net_->nodes_.size(); }

double NetworkTransientStepper::boundary_temp(double t, std::size_t i) const {
  // The drive re-resolves the boundary per step; the undriven path reads
  // the stored value.
  const double stored = net_->nodes_[i].temperature;
  return drive_.boundary_temperature ? drive_.boundary_temperature(t, i, stored) : stored;
}

void NetworkTransientStepper::apply_boundaries(double t, Vector& temps) const {
  for (std::size_t i = 0; i < net_->nodes_.size(); ++i)
    if (net_->nodes_[i].boundary) temps[i] = boundary_temp(t, i);
}

double NetworkTransientStepper::error_norm(const Vector& a, const Vector& b) const {
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!net_->nodes_[i].boundary) err = std::max(err, std::fabs(a[i] - b[i]));
  return err;
}

void NetworkTransientStepper::rate(const Vector& temps, double t, Vector& out) const {
  core::check_state_size("NetworkTransientStepper::rate", temps.size(), net_->nodes_.size());
  const auto& nodes = net_->nodes_;
  Vector resolved = temps;
  apply_boundaries(t, resolved);
  const auto gv = net_->evaluate_conductances(resolved);
  const double load_scale = drive_.load_scale ? drive_.load_scale(t) : 1.0;
  out.assign(nodes.size(), 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (!nodes[i].boundary) out[i] = nodes[i].load * load_scale;
  for (std::size_t ci = 0; ci < net_->conductors_.size(); ++ci) {
    const ThermalNetwork::Conductor& c = net_->conductors_[ci];
    const double q = gv[ci] * (resolved[c.b] - resolved[c.a]);  // heat into a [W]
    if (!nodes[c.a].boundary) out[c.a] += q;
    if (!nodes[c.b].boundary) out[c.b] -= q;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (!nodes[i].boundary) out[i] /= std::max(nodes[i].capacitance, kCapFloor);
}

std::size_t NetworkTransientStepper::step(Vector& temps, double t_next, double dt) {
  core::check_step_size("NetworkTransientStepper::step", dt);
  core::check_state_size("NetworkTransientStepper::step", temps.size(), net_->nodes_.size());
  const auto& nodes = net_->nodes_;
  const auto& conductors = net_->conductors_;

  static thread_local obs::CounterHandle transient_steps{"network.transient_steps"};
  static thread_local obs::CounterHandle transient_picard{"network.transient_picard_passes"};
  transient_steps.add();
  // Implicit Euler: the drive is sampled at the step's end time.
  const double load_scale = drive_.load_scale ? drive_.load_scale(t_next) : 1.0;
  // A few Picard passes per implicit step to handle nonlinear conductors.
  Vector iterate = temps;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (nodes[i].boundary) iterate[i] = boundary_temp(t_next, i);
  std::size_t passes = 0;
  for (std::size_t pic = 0; pic < 5; ++pic) {
    transient_picard.add();
    passes += 1;
    const auto gv = net_->evaluate_conductances(iterate);
    Matrix a(std::max<std::size_t>(n_unknown_, 1), std::max<std::size_t>(n_unknown_, 1));
    Vector rhs(std::max<std::size_t>(n_unknown_, 1), 0.0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::ptrdiff_t ui = unknown_index_[i];
      if (ui < 0) continue;
      const auto u = static_cast<std::size_t>(ui);
      const double cap = std::max(nodes[i].capacitance, kCapFloor);
      a(u, u) += cap / dt;
      rhs[u] += cap / dt * temps[i] + nodes[i].load * load_scale;
    }
    for (std::size_t ci = 0; ci < conductors.size(); ++ci) {
      const ThermalNetwork::Conductor& c = conductors[ci];
      const double g = gv[ci];
      if (g == 0.0) continue;
      const std::ptrdiff_t ia = unknown_index_[c.a];
      const std::ptrdiff_t ib = unknown_index_[c.b];
      if (ia >= 0 && ib >= 0) {
        const auto ua = static_cast<std::size_t>(ia);
        const auto ub = static_cast<std::size_t>(ib);
        a(ua, ua) += g;
        a(ub, ub) += g;
        a(ua, ub) -= g;
        a(ub, ua) -= g;
      } else if (ia >= 0) {
        const auto ua = static_cast<std::size_t>(ia);
        a(ua, ua) += g;
        rhs[ua] += g * boundary_temp(t_next, c.b);
      } else if (ib >= 0) {
        const auto ub = static_cast<std::size_t>(ib);
        a(ub, ub) += g;
        rhs[ub] += g * boundary_temp(t_next, c.a);
      }
    }
    Vector x(n_unknown_, 0.0);
    if (n_unknown_ > 0) x = numeric::CholeskyFactorization(a).solve(rhs);
    Vector next(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
      next[i] = nodes[i].boundary ? boundary_temp(t_next, i)
                                  : x[static_cast<std::size_t>(unknown_index_[i])];
    double delta = 0.0;
    for (std::size_t i = 0; i < next.size(); ++i)
      delta = std::max(delta, std::fabs(next[i] - iterate[i]));
    iterate = next;
    if (delta < opts_.tolerance) break;
  }
  temps = iterate;
  return passes;
}

TransientSolution ThermalNetwork::march_transient(double t_end, double dt,
                                                  const Vector& initial_temperatures,
                                                  const SteadyOptions& opts,
                                                  const NetworkDrive* drive) const {
  dt = core::check_march_window("ThermalNetwork::solve_transient", t_end, dt);
  core::check_state_size("ThermalNetwork::solve_transient", initial_temperatures.size(),
                         nodes_.size());

  NetworkTransientStepper stepper(*this, opts, drive ? *drive : NetworkDrive{});
  Vector temps = initial_temperatures;
  stepper.apply_boundaries(0.0, temps);

  TransientSolution out;
  out.times.push_back(0.0);
  out.temperatures.push_back(temps);

  obs::ScopedTimer span("network.solve_transient");
  core::march_fixed(stepper, temps, t_end, dt, [&](double t_next, const Vector& state) {
    out.times.push_back(t_next);
    out.temperatures.push_back(state);
  });
  return out;
}

TransientSolution ThermalNetwork::solve_transient(double t_end, double dt,
                                                  const Vector& initial_temperatures,
                                                  const SteadyOptions& opts) const {
  return march_transient(t_end, dt, initial_temperatures, opts, nullptr);
}

TransientSolution ThermalNetwork::solve_transient(double t_end, double dt,
                                                  const Vector& initial_temperatures,
                                                  const NetworkDrive& drive,
                                                  const SteadyOptions& opts) const {
  return march_transient(t_end, dt, initial_temperatures, opts, &drive);
}

}  // namespace aeropack::thermal
