// The unified transient stepping engine: loop semantics on a toy scalar
// stepper (exact implicit Euler of y' = -k y), the PI controller's contract
// (acceptance, rejection, boundary landing, max_steps guard), and the
// one-error-text convention every transient entry point in the toolkit now
// reports bad arguments through — FV, network, ROM and mission alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/transient_engine.hpp"
#include "materials/solid.hpp"
#include "mission/profile.hpp"
#include "mission/transient.hpp"
#include "numeric/dense.hpp"
#include "rom/canonical.hpp"
#include "rom/rom.hpp"
#include "rom/transient.hpp"
#include "thermal/fv.hpp"
#include "thermal/network.hpp"

namespace ac = aeropack::core;
namespace am = aeropack::mission;
namespace ar = aeropack::rom;
namespace at = aeropack::thermal;
using aeropack::numeric::Vector;

namespace {

/// Exact implicit Euler of dy/dt = -decay_rate * y: one scalar state, unit
/// cost per step. `last_error` keeps the latest controller metric, so a
/// test can read the adaptive march's error estimate.
struct DecayStepper {
  double decay_rate = 0.1;
  std::vector<double> attempted_dts;
  mutable double last_error = 0.0;

  std::size_t state_size() const { return 1; }
  std::size_t step(Vector& y, double /*t_next*/, double dt) {
    attempted_dts.push_back(dt);
    y[0] = y[0] / (1.0 + decay_rate * dt);
    return 1;
  }
  void rate(const Vector& y, double /*t*/, Vector& out) const { out = {-decay_rate * y[0]}; }
  double error_norm(const Vector& a, const Vector& b) const {
    last_error = std::abs(a[0] - b[0]);
    return last_error;
  }
};

static_assert(ac::TransientSystem<DecayStepper>);
static_assert(ac::TransientSystem<at::FvTransientStepper>);
static_assert(ac::TransientSystem<at::NetworkTransientStepper>);
static_assert(ac::TransientSystem<ar::RomTransientStepper>);

std::string thrown_text(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "<no throw>";
}

at::FvModel lumped_cell() {
  at::FvModel m(at::FvGrid::uniform(0.02, 0.02, 0.02, 1, 1, 1));
  aeropack::materials::SolidMaterial mat;
  mat.conductivity = 100.0;
  mat.conductivity_through = 100.0;
  mat.density = 2700.0;
  mat.specific_heat = 900.0;
  m.set_material(m.all_cells(), mat);
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::convection(50.0, 300.0));
  return m;
}

}  // namespace

TEST(TransientEngine, FixedMarchWalksTheExactProductGrid) {
  DecayStepper s;
  Vector y{100.0};
  std::vector<double> times;
  const std::size_t cost =
      ac::march_fixed(s, y, 1.0, 0.3, [&](double t, const Vector&) { times.push_back(t); });
  // ceil(1.0 / 0.3) = 4 steps at the exact products 0.3 * s.
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 0.3);
  EXPECT_DOUBLE_EQ(times[1], 0.6);
  EXPECT_DOUBLE_EQ(times[3], 1.2);
  EXPECT_EQ(cost, 4u);
  // Four implicit steps of the exact scalar update.
  double expect = 100.0;
  for (int i = 0; i < 4; ++i) expect /= 1.0 + 0.1 * 0.3;
  EXPECT_DOUBLE_EQ(y[0], expect);
}

TEST(TransientEngine, AdaptiveMarchLandsOnEveryTransition) {
  DecayStepper s;
  Vector y{350.0};
  std::vector<double> accepted;
  std::size_t landings = 0;
  ac::AdaptiveOptions opts;
  opts.dt_initial = 7.0;  // does not divide the boundary at t = 10
  opts.dt_max = 60.0;
  const ac::MarchStats stats = ac::march_adaptive(
      "engine-test", s, y, 30.0, opts, [](double t) { return t < 10.0 ? 10.0 : 30.0; },
      [](std::size_t) {},
      [&](double t, const Vector&, bool landed) {
        accepted.push_back(t);
        if (landed) ++landings;
      },
      [] {});
  ASSERT_FALSE(accepted.empty());
  EXPECT_DOUBLE_EQ(accepted.back(), 30.0);
  // One accepted step must end exactly on the interior transition.
  EXPECT_EQ(landings, 1u);
  EXPECT_NE(std::find(accepted.begin(), accepted.end(), 10.0), accepted.end());
  EXPECT_EQ(stats.boundary_landings, 1u);
  EXPECT_EQ(stats.steps_accepted, accepted.size());
  // TR-BDF2 spends exactly two unit-cost stepper calls per attempt.
  EXPECT_EQ(stats.step_cost, 2 * (stats.steps_accepted + stats.steps_rejected));
}

namespace {

/// One accepted TR-BDF2 attempt of size h on y' = -k y from y(0) = 1: the
/// local error against exp(-k h) and the march's own estimate of it.
struct OneAttempt {
  double local_error = 0.0;
  double estimate = 0.0;
};

OneAttempt one_attempt(double k, double h) {
  DecayStepper s;
  s.decay_rate = k;
  Vector y{1.0};
  ac::AdaptiveOptions opts;
  opts.tolerance = 1.0;  // accept whatever the first attempt gives
  opts.dt_initial = h;
  opts.dt_min = h;
  opts.dt_max = h;
  const ac::MarchStats stats = ac::march_adaptive(
      "engine-test", s, y, h, opts, [](double) { return 1e9; }, [](std::size_t) {},
      [](double, const Vector&, bool) {}, [] {});
  EXPECT_EQ(stats.steps_accepted, 1u);
  EXPECT_EQ(s.attempted_dts.size(), 2u);
  return {std::abs(y[0] - std::exp(-k * h)), s.last_error};
}

}  // namespace

TEST(TransientEngine, AdaptiveStepIsSecondOrderWithATightEmbeddedEstimate) {
  // Third-order local error: each halving of h divides it by ~8.
  for (const double kh : {0.1, 0.05, 0.025}) {
    const double coarse = one_attempt(1.0, kh).local_error;
    const double fine = one_attempt(1.0, 0.5 * kh).local_error;
    EXPECT_GE(coarse / fine, 7.5) << "kh " << kh;
    EXPECT_LE(coarse / fine, 8.0) << "kh " << kh;
  }
  // The embedded estimate tracks the true local error within 10%, at any
  // decay rate (only k h matters).
  for (const double k : {0.1, 2.0}) {
    for (const double kh : {0.25, 0.2, 0.1, 0.05, 0.01}) {
      const OneAttempt a = one_attempt(k, kh / k);
      EXPECT_GT(a.local_error, 0.0);
      EXPECT_NEAR(a.estimate / a.local_error, 1.0, 0.1) << "k " << k << " kh " << kh;
    }
  }
}

namespace {

/// rate() must be the derivative step() integrates: an implicit step of d
/// from y_in ends where (y_out - y_in) / d = rate(y_out, t_next), which the
/// adaptive march relies on to read each stage's derivative. Checked per
/// entry relative to the largest rate.
template <typename S>
void expect_rate_matches_implicit_step(S& stepper, const Vector& y_in, double t_next, double d,
                                       double rel_tol) {
  Vector y_out = y_in;
  stepper.step(y_out, t_next, d);
  Vector r;
  stepper.rate(y_out, t_next, r);
  ASSERT_EQ(r.size(), y_in.size());
  double scale = 0.0;
  for (const double v : r) scale = std::max(scale, std::abs(v));
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < r.size(); ++i)
    EXPECT_NEAR((y_out[i] - y_in[i]) / d, r[i], rel_tol * scale) << "entry " << i;
}

}  // namespace

TEST(TransientEngine, EveryStepperRateIsTheDerivativeItsStepIntegrates) {
  // FV: a slab with a source, a fixed film and a driven ambient.
  at::FvModel fv(at::FvGrid::uniform(0.04, 0.02, 0.01, 4, 3, 2));
  aeropack::materials::SolidMaterial mat;
  mat.conductivity = 20.0;
  mat.conductivity_through = 20.0;
  mat.density = 2000.0;
  mat.specific_heat = 800.0;
  fv.set_material(fv.all_cells(), mat);
  fv.add_power(fv.all_cells(), 3.0);
  fv.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(60.0, 300.0));
  const am::Profile profile = am::Profile::do160_thermal_shock(228.15, 328.15, 40.0, 60.0);
  const at::FvDrive drive = am::drive_for(profile);
  at::FvTransientStepper fv_stepper(fv);
  fv_stepper.set_drive(&drive);
  Vector field(fv.grid().cell_count());
  for (std::size_t c = 0; c < field.size(); ++c) field[c] = 290.0 + static_cast<double>(c % 7);
  expect_rate_matches_implicit_step(fv_stepper, field, 75.0, 2.0, 1e-6);

  // Network: the diffusion nodes integrate, the boundary node is prescribed
  // and has no rate of its own.
  at::ThermalNetwork net;
  const at::NodeId a = net.add_node("a", 100.0);
  const at::NodeId b = net.add_node("b", 40.0);
  const at::NodeId amb = net.add_boundary("amb", 300.0);
  net.add_conductor(a, b, 2.0);
  net.add_conductor(b, amb, 1.5);
  net.add_heat_load(a, 10.0);
  at::NetworkTransientStepper net_stepper(net, {}, am::drive_for_network(profile));
  Vector nodes{310.0, 305.0, 300.0};
  Vector net_rate;
  net_stepper.rate(nodes, 75.0, net_rate);
  EXPECT_EQ(net_rate[amb], 0.0);
  Vector net_out = nodes;
  net_stepper.step(net_out, 75.0, 2.0);
  net_stepper.rate(net_out, 75.0, net_rate);
  for (const at::NodeId i : {a, b})
    EXPECT_NEAR((net_out[i] - nodes[i]) / 2.0, net_rate[i], 1e-9) << "node " << i;

  // ROM: the reduced coordinates of the Fig. 2 board under a driven sink.
  const ar::CanonicalCase cc = ar::fig2_board();
  ar::RomOptions rom_opts;
  rom_opts.rank = 3;
  const ar::RomModel rom = ar::build_rom(cc.model, cc.spec, rom_opts);
  ar::RomInputs inputs;
  inputs.sink_temperatures = {300.0, 300.0, 300.0};
  inputs.map_powers = {5.0, 5.0};
  ar::RomTransientStepper rom_stepper(rom, inputs, am::drive_for_rom(profile, inputs));
  expect_rate_matches_implicit_step(rom_stepper, rom_stepper.initial_state(300.0), 75.0, 2.0,
                                    1e-9);
}

TEST(TransientEngine, AdaptiveMarchRejectsAndShrinksOnRoughError) {
  // A huge tolerance-violating first step: decay is fast, dt_initial huge.
  DecayStepper s;
  s.decay_rate = 50.0;
  Vector y{1000.0};
  ac::AdaptiveOptions opts;
  opts.tolerance = 1e-3;
  opts.dt_initial = 10.0;
  opts.dt_min = 1e-6;
  std::size_t rejections = 0;
  ac::march_adaptive(
      "engine-test", s, y, 1.0, opts, [](double) { return 1e9; }, [](std::size_t) {},
      [](double, const Vector&, bool) {}, [&] { ++rejections; });
  EXPECT_GT(rejections, 0u);
}

TEST(TransientEngine, AdaptiveMarchThrowsPastMaxSteps) {
  DecayStepper s;
  s.decay_rate = 50.0;
  Vector y{1000.0};
  ac::AdaptiveOptions opts;
  opts.tolerance = 1e-12;  // unreachable: every attempt rejects above dt_min
  opts.dt_min = 1e-3;
  opts.max_steps = 10;
  EXPECT_EQ(thrown_text([&] {
              ac::march_adaptive(
                  "engine-test", s, y, 3600.0, opts, [](double) { return 1e9; },
                  [](std::size_t) {}, [](double, const Vector&, bool) {}, [] {});
            }),
            "engine-test: adaptive march exceeded max_steps (tolerance too tight or dt_min too "
            "small for this model)");
}

TEST(TransientEngine, ValidationHelpersFormatOneConvention) {
  EXPECT_EQ(thrown_text([] { ac::check_step_size("x::step", 0.0); }),
            "x::step: bad time step (require dt > 0)");
  EXPECT_EQ(thrown_text([] { ac::check_march_window("x::march", -1.0, 1.0); }),
            "x::march: bad time step (require dt > 0 and t_end > 0)");
  EXPECT_EQ(thrown_text([] { ac::check_state_size("x::march", 3, 7); }),
            "x::march: state size mismatch (got 3, expected 7)");
  ac::AdaptiveOptions bad;
  bad.tolerance = -1.0;
  EXPECT_EQ(thrown_text([&] { ac::check_adaptive_options("x", bad); }),
            "x: adaptive options must satisfy tolerance > 0, 0 < dt_min <= dt_max");
  // The degenerate window clamps instead of throwing.
  EXPECT_DOUBLE_EQ(ac::check_march_window("x", 2.0, 50.0), 2.0);
}

TEST(TransientEngine, EveryFidelityReportsTheSameErrorTexts) {
  // FV: model-level march window and stepper-level per-step dt.
  at::FvModel fv = lumped_cell();
  EXPECT_EQ(thrown_text([&] { fv.solve_transient(10.0, 0.0, 300.0); }),
            "FvModel::solve_transient: bad time step (require dt > 0 and t_end > 0)");
  at::FvTransientStepper fv_stepper(fv);
  Vector one_cell{300.0};
  EXPECT_EQ(thrown_text([&] { fv_stepper.step(one_cell, 1.0, -1.0); }),
            "FvTransientStepper::step: bad time step (require dt > 0)");
  Vector two_cells{300.0, 300.0};
  EXPECT_EQ(thrown_text([&] { fv_stepper.step(two_cells, 1.0, 1.0); }),
            "FvTransientStepper::step: state size mismatch (got 2, expected 1)");

  // Network: march window and the stepper concept.
  at::ThermalNetwork net;
  net.add_node("a", 100.0);
  net.add_boundary("amb", 300.0);
  net.add_conductor(0, 1, 2.0);
  EXPECT_EQ(thrown_text([&] { net.solve_transient(10.0, 0.0, Vector{300.0, 300.0}); }),
            "ThermalNetwork::solve_transient: bad time step (require dt > 0 and t_end > 0)");
  EXPECT_EQ(thrown_text([&] { net.solve_transient(10.0, 1.0, Vector{300.0}); }),
            "ThermalNetwork::solve_transient: state size mismatch (got 1, expected 2)");
  at::NetworkTransientStepper net_stepper(net);
  Vector nodes{300.0, 300.0};
  EXPECT_EQ(thrown_text([&] { net_stepper.step(nodes, 1.0, 0.0); }),
            "NetworkTransientStepper::step: bad time step (require dt > 0)");

  // ROM: march window on the model, per-step dt + state size on the stepper.
  const ar::CanonicalCase cc = ar::fig2_board();
  ar::RomOptions rom_opts;
  rom_opts.rank = 2;
  const ar::RomModel rom = ar::build_rom(cc.model, cc.spec, rom_opts);
  ar::RomInputs inputs;
  inputs.sink_temperatures = {300.0, 300.0, 300.0};
  inputs.map_powers = {5.0, 5.0};
  EXPECT_EQ(thrown_text([&] { rom.transient(inputs, 0.0, 1.0, 300.0); }),
            "RomModel::transient: bad time step (require dt > 0 and t_end > 0)");
  ar::RomTransientStepper rom_stepper(rom, inputs);
  Vector y = rom_stepper.initial_state(300.0);
  EXPECT_EQ(thrown_text([&] { rom_stepper.step(y, 1.0, 0.0); }),
            "RomTransientStepper::step: bad time step (require dt > 0)");
  Vector wrong(rom.rank() + 1, 0.0);
  EXPECT_EQ(thrown_text([&] { rom_stepper.step(wrong, 1.0, 1.0); }),
            "RomTransientStepper::step: state size mismatch (got " +
                std::to_string(rom.rank() + 1) + ", expected " + std::to_string(rom.rank()) +
                ")");

  // Mission: the controller options funnel through the same helper.
  const am::Profile profile = am::Profile::do160_thermal_shock(228.15, 328.15, 40.0, 60.0);
  am::AdaptiveOptions bad;
  bad.dt_min = 0.0;
  EXPECT_EQ(thrown_text([&] { am::run_fv_mission(fv, profile, 300.0, bad); }),
            "mission: adaptive options must satisfy tolerance > 0, 0 < dt_min <= dt_max");
}
