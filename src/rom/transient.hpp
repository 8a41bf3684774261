// Driven reduced-order transient stepping: the rom implementation of the
// core::TransientSystem concept (core/transient_engine.hpp).
//
// A RomTransientStepper marches the reduced coordinates of a RomModel with
// implicit Euler on the *cached projected operator*: the r x r reduced
// conduction and capacity matrices were projected once at build time (and
// are typically reused across whole campaigns through get_or_build_rom), so
// a time-varying environment costs zero reprojection — a RomDrive merely
// re-evaluates the model's inputs (port sink temperatures, map powers) at
// the end time of every step and the reduced right-hand side is refreshed
// from the constant input map. This is what makes orbit-scale mission
// horizons tractable: each step is an r x r dense solve in nanoseconds
// instead of a full-order CG solve.
//
// Step sizes may change freely between calls — (C_r/dt + A_r) is
// re-factorized per distinct dt through a small exact-dt cache (the
// adaptive TR-BDF2 march takes both stages of an attempt at one dt) — and
// rate() solves with one Cholesky factor of C_r cached at construction, so
// the same stepper serves fixed-dt marches and the PI-controlled mission
// march.
//
// Determinism contract: all arithmetic is serial dense algebra over the
// deterministic reduced operators, so marches are bit-identical across
// 1/2/8 threads and across ExecutionContexts (gated by
// tests/rom/test_transient_stepper.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "numeric/dense.hpp"
#include "numeric/solve_dense.hpp"
#include "rom/rom.hpp"

namespace aeropack::rom {

/// Time-varying reduced-input drive: the rom counterpart of
/// thermal::FvDrive. `inputs(t)` returns the full RomInputs vector at
/// mission time `t` (sizes must match the model's spec) and must be pure —
/// same t, same inputs — for the march to stay deterministic. An empty
/// callback means the stepper's base inputs throughout (the undriven
/// special case). The mission layer builds rom drives from
/// mission::Profile (mission::drive_for_rom); hand-written drives are
/// equally valid.
struct RomDrive {
  std::function<RomInputs(double t)> inputs;
};

/// Reusable implicit-Euler stepper over a RomModel's reduced coordinates.
/// The state vector of the concept is the reduced coordinate vector y
/// (rank entries); use RomModel::reconstruct to lift any state back to the
/// full per-cell field. Counts one rom.transient_evals per stepper and one
/// rom.transient_steps per step, so a collapsed fixed-dt march reports the
/// same counters the hand-rolled loop did.
class RomTransientStepper {
 public:
  /// Build over `model` with the given base inputs (validated against the
  /// spec; std::invalid_argument on size mismatch). The model must outlive
  /// the stepper.
  RomTransientStepper(const RomModel& model, RomInputs base_inputs, RomDrive drive = {});
  /// Shared-ownership overload: keeps the (typically cache-held) model
  /// alive for the stepper's lifetime.
  RomTransientStepper(std::shared_ptr<const RomModel> model, RomInputs base_inputs,
                      RomDrive drive = {});

  // --- core::TransientSystem concept ------------------------------------
  std::size_t state_size() const;
  /// One implicit Euler step of size `dt` ending at mission time `t_next`:
  /// refresh the reduced right-hand side from the drive-resolved inputs at
  /// `t_next`, solve (C_r/dt + A_r) y' = b + C_r/dt y. Returns 1 (one
  /// dense solve).
  std::size_t step(numeric::Vector& y, double t_next, double dt);
  /// Reduced time derivative at mission time `t`: C_r^-1 (b(t) - A_r y),
  /// with the inputs resolved through the drive at `t`.
  void rate(const numeric::Vector& y, double t, numeric::Vector& out) const;
  /// Controller error metric: max-norm of the *reconstructed* field
  /// difference [K] — kelvin units, so one mission tolerance means the same
  /// thing at ROM and FV fidelity.
  double error_norm(const numeric::Vector& a, const numeric::Vector& b) const;

  /// Reduced coordinates of a uniform initial temperature field
  /// (t_initial * V^T 1) — the same initial state RomModel::transient uses.
  numeric::Vector initial_state(double t_initial) const;

  const RomModel& model() const { return *model_; }
  /// Base inputs resolved at construction (the undriven inputs).
  const RomInputs& base_inputs() const { return base_; }

 private:
  const numeric::CholeskyFactorization& factor_for(double dt);
  /// Reduced right-hand side at mission time `t`: the drive-resolved
  /// inputs projected into `scratch`, or the base right-hand side when
  /// undriven.
  const numeric::Vector& rhs_at(double t, numeric::Vector& scratch) const;

  std::shared_ptr<const RomModel> keepalive_;
  const RomModel* model_;
  RomInputs base_;
  RomDrive drive_;
  numeric::Vector b_base_;  ///< reduced_rhs(base_), reused when undriven
  numeric::CholeskyFactorization capacity_;  ///< factor of C_r, for rate()

  /// Exact-dt factorization ring: a TR-BDF2 attempt takes both its stages at
  /// one dt and fixed-dt marches use one, so a handful of slots gives every
  /// loop shape an O(1) hit path, also across a rejection and its retry.
  /// Replacement is deterministic round-robin.
  struct DtFactor {
    double dt = 0.0;
    numeric::CholeskyFactorization factor;
  };
  std::vector<DtFactor> factors_;
  std::size_t next_slot_ = 0;
};

}  // namespace aeropack::rom
