// The unified transient stepping engine (DESIGN.md "Transient engine").
//
// Every transient path in the toolkit — full finite-volume marches, lumped
// network marches, reduced-order marches and the adaptive mission
// controller — used to carry its own hand-rolled time loop. This header is
// the single replacement: a stepper *concept* (one implicit step of an
// arbitrary size ending at an arbitrary mission time) plus the two loop
// shapes built on it, a fixed-dt march and the PI step-doubling adaptive
// march. Fidelity lives in the stepper (thermal::FvTransientStepper,
// thermal::NetworkTransientStepper, rom::RomTransientStepper); the loops,
// the error control and the input validation live here, once.
//
// Determinism contract: both marches are pure double arithmetic over
// whatever the stepper computes — no reductions, no threading, no
// reordering. A stepper whose step() and error_norm() are bitwise
// deterministic therefore yields bitwise-identical marches at any thread
// count, which is the property the mission determinism sweeps gate.
//
// Validation convention (tested in tests/core/test_transient_engine.cpp):
// every transient entry point reports bad arguments through these helpers,
// so the error texts are uniform across FV, network, ROM and mission:
//   "<entry>: bad time step (require dt > 0)"            per-step dt
//   "<entry>: bad time step (require dt > 0 and t_end > 0)"  march windows
//   "<entry>: state size mismatch (got N, expected M)"   state vectors
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "numeric/dense.hpp"

namespace aeropack::core {

/// One implicit-Euler stepping system. `step(state, t_next, dt)` advances
/// `state` in place by one implicit step of size `dt` ending at mission time
/// `t_next` — resolving any attached drive at `t_next` — and returns the
/// step's solver cost (CG iterations, Picard passes, or 1 for direct
/// solves). `error_norm` is the controller metric between two candidate end
/// states, in kelvin so one tolerance means the same thing at every
/// fidelity. Step size may change freely between calls: steppers apply
/// capacity/dt per call instead of baking it into their operator.
template <typename S>
concept TransientSystem =
    requires(S s, const S cs, numeric::Vector& state, const numeric::Vector& a, double t) {
      { cs.state_size() } -> std::convertible_to<std::size_t>;
      { s.step(state, t, t) } -> std::convertible_to<std::size_t>;
      { cs.error_norm(a, a) } -> std::convertible_to<double>;
    };

/// Step-size controller options for march_adaptive. Defaults suit the
/// coarse qualification models (SEB box, Fig. 2 board); tighten `tolerance`
/// for fine grids.
struct AdaptiveOptions {
  double tolerance = 0.05;  ///< step-doubling error target, error_norm units
  double dt_initial = 1.0;  ///< first attempted step [s]
  double dt_min = 1e-3;     ///< smallest controller step [s]
  double dt_max = 60.0;     ///< largest controller step [s]
  /// Hard cap on attempted steps (accepted + rejected); exceeding it throws
  /// std::runtime_error — the march is diverging or dt_min is too small.
  std::size_t max_steps = 200000;
};

/// Bookkeeping of one adaptive march.
struct MarchStats {
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected = 0;
  /// Accepted steps that landed exactly on a transition boundary < t_end.
  std::size_t boundary_landings = 0;
  /// Sum of stepper.step() costs across every attempt (incl. rejected).
  std::size_t step_cost = 0;
};

/// Per-step validation: a single implicit step needs dt > 0.
inline void check_step_size(const char* where, double dt) {
  if (!(dt > 0.0))
    throw std::invalid_argument(std::string(where) + ": bad time step (require dt > 0)");
}

/// March-window validation: dt and t_end must both be positive; a march
/// shorter than one step degenerates to a single step of t_end (the clamped
/// dt is returned).
inline double check_march_window(const char* where, double t_end, double dt) {
  if (!(dt > 0.0) || !(t_end > 0.0))
    throw std::invalid_argument(std::string(where) +
                                ": bad time step (require dt > 0 and t_end > 0)");
  return std::min(dt, t_end);
}

inline void check_state_size(const char* where, std::size_t got, std::size_t expected) {
  if (got != expected)
    throw std::invalid_argument(std::string(where) + ": state size mismatch (got " +
                                std::to_string(got) + ", expected " + std::to_string(expected) +
                                ")");
}

inline void check_adaptive_options(const char* where, const AdaptiveOptions& adaptive) {
  if (!(adaptive.tolerance > 0.0) || !(adaptive.dt_min > 0.0) ||
      !(adaptive.dt_max >= adaptive.dt_min))
    throw std::invalid_argument(std::string(where) +
                                ": adaptive options must satisfy tolerance > 0, "
                                "0 < dt_min <= dt_max");
}

/// Fixed-dt implicit march over [0, t_end]: ceil(t_end / dt) steps whose end
/// times are the exact products dt * s (not accumulated sums — the grid is
/// bitwise reproducible). `observe(t_next, state)` fires after every step;
/// the return value is the summed step cost. The caller validates and
/// clamps dt through check_march_window first and records the initial state
/// itself — the engine only owns the loop.
template <TransientSystem S, typename Observer>
std::size_t march_fixed(S& stepper, numeric::Vector& state, double t_end, double dt,
                        Observer&& observe) {
  const std::size_t steps = static_cast<std::size_t>(std::ceil(t_end / dt));
  std::size_t cost = 0;
  for (std::size_t s = 1; s <= steps; ++s) {
    const double t_next = dt * static_cast<double>(s);
    cost += stepper.step(state, t_next, dt);
    observe(t_next, state);
  }
  return cost;
}

/// PI step-doubling adaptive march over [0, t_end]. Every attempt computes
/// one full step and two half steps from the same state; their error_norm
/// difference estimates the local truncation error, the (more accurate)
/// two-half solution is the one accepted, and the PI controller picks the
/// next step size. Steps never cross `next_transition(t)` — drivers may be
/// discontinuous there and stepping across a jump would smear it; a step
/// clamped by a boundary keeps the controller's dt ambition.
///
/// Hooks (all may be empty lambdas):
///   on_attempt(cost)          after the three stepper calls of an attempt
///   on_accept(t, state, landed)  after a step is accepted (landed = ended
///                                exactly on a transition boundary < t_end)
///   on_reject()               after a step is rejected
///
/// Throws std::invalid_argument on bad options / state size and
/// std::runtime_error when max_steps attempts cannot reach t_end.
template <TransientSystem S, typename NextTransition, typename OnAttempt, typename OnAccept,
          typename OnReject>
MarchStats march_adaptive(const char* where, S& stepper, numeric::Vector& state, double t_end,
                          const AdaptiveOptions& adaptive, NextTransition&& next_transition,
                          OnAttempt&& on_attempt, OnAccept&& on_accept, OnReject&& on_reject) {
  check_adaptive_options(where, adaptive);
  check_state_size(where, state.size(), stepper.state_size());

  // PI controller for first-order implicit Euler: factor =
  // kSafety * (tol/err)^kI * (err_prev/err)^kP, clamped to the limits.
  constexpr double kSafety = 0.9;
  constexpr double kShrinkLimit = 0.2;  // max per-step shrink factor
  constexpr double kGrowLimit = 4.0;    // max per-step growth factor
  constexpr double kI = 0.35;
  constexpr double kP = 0.2;
  const auto clamp = [](double v, double lo, double hi) { return std::min(hi, std::max(lo, v)); };

  MarchStats out;
  double t = 0.0;
  double dt_want = clamp(adaptive.dt_initial, adaptive.dt_min, adaptive.dt_max);
  // Neutral controller memory: behaves like a plain I controller on step 1.
  double err_prev = adaptive.tolerance;
  numeric::Vector trial, half;
  std::size_t attempts = 0;

  while (t < t_end * (1.0 - 1e-12)) {
    if (++attempts > adaptive.max_steps) {
      throw std::runtime_error(std::string(where) +
                               ": adaptive march exceeded max_steps (tolerance too "
                               "tight or dt_min too small for this model)");
    }
    // Never step across a transition boundary: drivers may jump there.
    const double limit = std::min(t_end, next_transition(t));
    const double room = limit - t;
    double dt_try = std::min(dt_want, room);
    const bool boundary_clamped = dt_try < dt_want;

    const double t_next = (dt_try >= room) ? limit : t + dt_try;
    const double h2 = 0.5 * dt_try;

    // Step-doubling: one full step and two half steps from the same state.
    trial = state;
    std::size_t cost = stepper.step(trial, t_next, dt_try);
    half = state;
    cost += stepper.step(half, t + h2, h2);
    cost += stepper.step(half, t_next, dt_try - h2);
    out.step_cost += cost;
    on_attempt(cost);

    const double err = stepper.error_norm(half, trial);

    // At dt_min there is no smaller step to retry with: accept and move on.
    const bool at_floor = dt_try <= adaptive.dt_min * (1.0 + 1e-9);
    if (err <= adaptive.tolerance || at_floor) {
      // Accept the two-half solution (the more accurate of the pair).
      state.swap(half);
      t = t_next;
      out.steps_accepted += 1;
      const bool landed = t >= limit && limit < t_end;
      if (landed) out.boundary_landings += 1;
      on_accept(t, state, landed);

      double factor = kGrowLimit;
      if (err > 0.0) {
        factor = kSafety * std::pow(adaptive.tolerance / err, kI) * std::pow(err_prev / err, kP);
      }
      factor = clamp(factor, kShrinkLimit, kGrowLimit);
      double next_want = clamp(dt_try * factor, adaptive.dt_min, adaptive.dt_max);
      // A boundary-clamped step says nothing about accuracy at dt_want;
      // keep the controller's ambition instead of shrinking toward slivers.
      if (boundary_clamped) next_want = std::max(next_want, dt_want);
      dt_want = next_want;
      err_prev = std::max(err, 1e-4 * adaptive.tolerance);
    } else {
      out.steps_rejected += 1;
      on_reject();
      const double factor = clamp(kSafety * std::sqrt(adaptive.tolerance / err), kShrinkLimit, 0.9);
      dt_want = std::max(adaptive.dt_min, dt_try * factor);
    }
  }
  return out;
}

}  // namespace aeropack::core
