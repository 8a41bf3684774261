// The unified transient stepping engine (DESIGN.md "Transient engine").
//
// Every transient path in the toolkit — full finite-volume marches, lumped
// network marches, reduced-order marches and the adaptive mission
// controller — used to carry its own hand-rolled time loop. This header is
// the single replacement: a stepper *concept* (one implicit step of an
// arbitrary size ending at an arbitrary mission time, plus the state's time
// derivative) and the two loop shapes built on it, a fixed-dt implicit-Euler
// march and the PI-controlled TR-BDF2 adaptive march. Fidelity lives in the
// stepper (thermal::FvTransientStepper, thermal::NetworkTransientStepper,
// rom::RomTransientStepper); the loops, the error control and the input
// validation live here, once.
//
// Determinism contract: both marches are pure double arithmetic over
// whatever the stepper computes — no reductions, no threading, no
// reordering. A stepper whose step(), rate() and error_norm() are bitwise
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
#include <numbers>
#include <stdexcept>
#include <string>

#include "numeric/dense.hpp"

namespace aeropack::core {

/// One implicit-Euler stepping system. `step(state, t_next, dt)` advances
/// `state` in place by one implicit step of size `dt` ending at mission time
/// `t_next` — resolving any attached drive at `t_next` — and returns the
/// step's solver cost (CG iterations, Picard passes, or 1 for direct
/// solves). `rate(state, t, out)` writes the time derivative C⁻¹ f(t, state)
/// the implicit step integrates, with the drive resolved at `t` (the
/// adaptive march's explicit stage). `error_norm` is the controller metric
/// between two states, in kelvin so one tolerance means the same thing at
/// every fidelity. Step size may change freely between calls: steppers
/// apply capacity/dt per call instead of baking it into their operator.
template <typename S>
concept TransientSystem = requires(S s, const S cs, numeric::Vector& state,
                                   const numeric::Vector& a, double t) {
  { cs.state_size() } -> std::convertible_to<std::size_t>;
  { s.step(state, t, t) } -> std::convertible_to<std::size_t>;
  s.rate(a, t, state);
  { cs.error_norm(a, a) } -> std::convertible_to<double>;
};

/// Step-size controller options for march_adaptive. Defaults suit the
/// coarse qualification models (SEB box, Fig. 2 board); tighten `tolerance`
/// for fine grids.
struct AdaptiveOptions {
  double tolerance = 0.05;  ///< estimated local error of an accepted step, error_norm units
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

/// PI-controlled TR-BDF2 adaptive march over [0, t_end] (Hosea & Shampine,
/// Appl. Numer. Math. 20, 1996), at gamma = 2 - sqrt(2). Every attempt of
/// size h from (t_n, y_n) makes one rate() call and two implicit-Euler
/// step() calls of the same size d = gamma h / 2:
///   r_n = rate(y_n, t_n+)
///   stage 1, trapezoidal rule to t_n + gamma h: step from y_n + d r_n
///   stage 2, BDF2 to t_n + h: step from
///            (y_gamma - (1 - gamma)^2 y_n) / (gamma (2 - gamma))
/// Each stage's derivative is read off its implicit-Euler relation,
/// r = (y_out - y_in) / d, and the embedded estimate
///   e = 2 k h (r_n / gamma - r_gamma / (gamma (1 - gamma)) + r_{n+1} / (1 - gamma)),
///   k = (-3 gamma^2 + 4 gamma - 2) / (12 (2 - gamma)),
/// measured as error_norm(e, 0), is the attempt's local error. The
/// second-order y_{n+1} is accepted when it meets the tolerance, and the PI
/// controller picks the next step size. r_n is evaluated just after t_n
/// (std::nextafter toward t_end): a driver gives a boundary instant to the
/// phase that ends there, and a step starting on a boundary integrates the
/// phase that begins. Steps never cross `next_transition(t)` — drivers may
/// be discontinuous there and stepping across a jump would smear it; a step
/// clamped by a boundary keeps the controller's dt ambition.
///
/// Hooks (all may be empty lambdas):
///   on_attempt(cost)          after the two stepper calls of an attempt
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

  // TR-BDF2 coefficients: both stages are implicit-Euler steps of gamma h / 2.
  constexpr double kGamma = 2.0 - std::numbers::sqrt2;
  constexpr double kStageWeight = 1.0 / (kGamma * (2.0 - kGamma));
  constexpr double kHistoryWeight = (1.0 - kGamma) * (1.0 - kGamma) * kStageWeight;
  constexpr double kErrorConstant =
      (-3.0 * kGamma * kGamma + 4.0 * kGamma - 2.0) / (12.0 * (2.0 - kGamma));
  // PI controller for the second-order method (local error ~ h^3): factor =
  // kSafety * (tol/err)^kI * (err_prev/err)^kP, clamped to the limits.
  constexpr double kSafety = 0.9;
  constexpr double kShrinkLimit = 0.2;  // max per-step shrink factor
  constexpr double kGrowLimit = 4.0;    // max per-step growth factor
  constexpr double kI = 0.7 / 3.0;
  constexpr double kP = 0.4 / 3.0;
  const auto clamp = [](double v, double lo, double hi) { return std::min(hi, std::max(lo, v)); };

  MarchStats out;
  double t = 0.0;
  double dt_want = clamp(adaptive.dt_initial, adaptive.dt_min, adaptive.dt_max);
  // Neutral controller memory: behaves like a plain I controller on step 1.
  double err_prev = adaptive.tolerance;
  const std::size_t n = state.size();
  numeric::Vector rate_n(n), stage_in(n), stage(n), r_gamma(n), trial(n), estimate(n);
  const numeric::Vector zero(n, 0.0);
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
    const double d = 0.5 * kGamma * dt_try;

    stepper.rate(state, std::nextafter(t, t_end), rate_n);
    // Stage 1: the trapezoidal rule to t + gamma h.
    for (std::size_t i = 0; i < n; ++i) stage_in[i] = state[i] + d * rate_n[i];
    stage = stage_in;
    std::size_t cost = stepper.step(stage, t + kGamma * dt_try, d);
    // Stage 2: BDF2 through y_n and y_gamma to t + h.
    for (std::size_t i = 0; i < n; ++i) {
      r_gamma[i] = (stage[i] - stage_in[i]) / d;
      stage_in[i] = kStageWeight * stage[i] - kHistoryWeight * state[i];
    }
    trial = stage_in;
    cost += stepper.step(trial, t_next, d);
    out.step_cost += cost;
    on_attempt(cost);

    const double scale = 2.0 * kErrorConstant * dt_try;
    for (std::size_t i = 0; i < n; ++i) {
      const double r_next = (trial[i] - stage_in[i]) / d;
      estimate[i] = scale * (rate_n[i] / kGamma - r_gamma[i] / (kGamma * (1.0 - kGamma)) +
                             r_next / (1.0 - kGamma));
    }
    const double err = stepper.error_norm(estimate, zero);

    // At dt_min there is no smaller step to retry with: accept and move on.
    const bool at_floor = dt_try <= adaptive.dt_min * (1.0 + 1e-9);
    if (err <= adaptive.tolerance || at_floor) {
      state.swap(trial);
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
      const double factor =
          clamp(kSafety * std::cbrt(adaptive.tolerance / err), kShrinkLimit, 0.9);
      dt_want = std::max(adaptive.dt_min, dt_try * factor);
    }
  }
  return out;
}

}  // namespace aeropack::core
