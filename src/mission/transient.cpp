#include "mission/transient.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "exec/context.hpp"
#include "obs/registry.hpp"

namespace aeropack::mission {

namespace {

/// Shared pre-validation of every mission entry point: the profile, the
/// initial temperature and the controller knobs are rejected before any
/// stepper (and hence any assembly or counter) is constructed.
void check_mission_arguments(const Profile& profile, double t_initial,
                             const AdaptiveOptions& adaptive) {
  if (profile.phase_count() == 0) {
    throw std::invalid_argument("mission: profile has no phases");
  }
  if (!(t_initial > 0.0) || !std::isfinite(t_initial)) {
    throw std::invalid_argument("mission: initial temperature must be positive and finite");
  }
  core::check_adaptive_options("mission", adaptive);
}

/// The trace the FV and ROM marches share: per-cell volume weights, the
/// max, min and volume-weighted mean of every recorded field, and the
/// wall-clock epilogue. Built at the start of a march, which is where its
/// wall clock starts.
class FieldTrace {
 public:
  /// Weights are `grid`'s cell volumes, or 1 for each of the n cells when
  /// `grid` is null. Serial sums keep the trace values independent of the
  /// thread count.
  FieldTrace(MissionSolution& out, const thermal::FvGrid* grid, std::size_t n)
      : out_(out),
        volume_(n, 1.0),
        total_volume_(static_cast<double>(n)),
        wall0_(std::chrono::steady_clock::now()) {
    if (grid == nullptr) return;
    if (grid->cell_count() != n) {
      throw std::invalid_argument("mission: grid cell count does not match the reduced basis");
    }
    total_volume_ = 0.0;
    for (std::size_t k = 0; k < grid->nz(); ++k)
      for (std::size_t j = 0; j < grid->ny(); ++j)
        for (std::size_t i = 0; i < grid->nx(); ++i) {
          const double v = grid->cell_volume(i, j, k);
          volume_[grid->index(i, j, k)] = v;
          total_volume_ += v;
        }
  }

  void record(double time, const numeric::Vector& field) {
    double mx = field[0], mn = field[0], weighted = 0.0;
    for (std::size_t c = 0; c < volume_.size(); ++c) {
      mx = std::max(mx, field[c]);
      mn = std::min(mn, field[c]);
      weighted += volume_[c] * field[c];
    }
    out_.times.push_back(time);
    out_.t_max.push_back(mx);
    out_.t_min.push_back(mn);
    out_.t_mean.push_back(weighted / total_volume_);
  }

  /// Counts the wall time since construction and, with telemetry on, sets
  /// the simulated and wall seconds of the march.
  void finish(double t_end) const {
    // Wall-clock only: excluded from bench gating (tools/check_report.py).
    static thread_local obs::CounterHandle elapsed_counter{"mission.wallclock.elapsed_us"};
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0_).count();
    elapsed_counter.add(static_cast<std::uint64_t>(wall_seconds * 1e6));
    if (obs::enabled()) {
      obs::current().gauge("mission.sim_seconds").set(t_end);
      obs::current().gauge("mission.wall_seconds").set(wall_seconds);
    }
  }

 private:
  MissionSolution& out_;
  numeric::Vector volume_;
  double total_volume_;
  std::chrono::steady_clock::time_point wall0_;
};

}  // namespace

thermal::FvDrive drive_for(const Profile& profile) {
  if (profile.phase_count() == 0) {
    throw std::invalid_argument("mission::drive_for: profile has no phases");
  }
  thermal::FvDrive drive;
  drive.boundary = [profile](double t, thermal::Face /*face*/,
                             const thermal::BoundaryCondition& bc) {
    const EnvironmentState env = profile.environment(t);
    thermal::BoundaryCondition out = bc;
    switch (bc.kind) {
      case thermal::BoundaryKind::Convection:
        out.temperature = env.t_ambient;
        out.h = bc.h * env.h_scale;
        break;
      case thermal::BoundaryKind::NaturalConvection:
        // Film coefficient comes from the correlation; only the ambient moves.
        out.temperature = env.t_ambient;
        break;
      case thermal::BoundaryKind::ConvectionRadiation:
        out.temperature = env.t_sink;
        out.h = bc.h * env.h_scale;
        break;
      case thermal::BoundaryKind::FixedTemperature:
        out.temperature = env.t_ambient;
        break;
      case thermal::BoundaryKind::Adiabatic:
      case thermal::BoundaryKind::HeatFlux:
        break;
    }
    return out;
  };
  drive.power_scale = [profile](double t) { return profile.environment(t).power_scale; };
  return drive;
}

thermal::NetworkDrive drive_for_network(const Profile& profile) {
  if (profile.phase_count() == 0) {
    throw std::invalid_argument("mission::drive_for_network: profile has no phases");
  }
  thermal::NetworkDrive drive;
  drive.boundary_temperature = [profile](double t, thermal::NodeId /*node*/, double /*stored*/) {
    return profile.environment(t).t_ambient;
  };
  drive.load_scale = [profile](double t) { return profile.environment(t).power_scale; };
  return drive;
}

MissionSolution run_fv_mission(const thermal::FvModel& model, const Profile& profile,
                               double t_initial, const AdaptiveOptions& adaptive,
                               const thermal::FvOptions& fv_opts,
                               std::shared_ptr<const thermal::FvAssembly> assembly) {
  check_mission_arguments(profile, t_initial, adaptive);

  static thread_local obs::CounterHandle steps_counter{"mission.steps"};
  static thread_local obs::CounterHandle reject_counter{"mission.step_rejections"};
  static thread_local obs::CounterHandle phase_counter{"mission.phase_transitions"};
  static thread_local obs::CounterHandle cg_counter{"mission.cg_iterations"};
  obs::ScopedTimer span("mission.solve");
  MissionSolution out;
  const std::size_t n = model.grid().cell_count();
  FieldTrace trace(out, &model.grid(), n);

  const double t_end = profile.total_duration();
  const thermal::FvDrive drive = drive_for(profile);
  thermal::FvTransientStepper stepper(model, fv_opts, std::move(assembly));
  stepper.set_drive(&drive);
  out.structure_assemblies = stepper.structure_assemblies();

  numeric::Vector temps(n, t_initial);
  trace.record(0.0, temps);

  const core::MarchStats stats = core::march_adaptive(
      "mission", stepper, temps, t_end, adaptive,
      [&](double t) { return profile.next_transition(t); },
      [&](std::size_t iters) { cg_counter.add(iters); },
      [&](double t, const numeric::Vector& field, bool landed) {
        steps_counter.add(1);
        if (landed) phase_counter.add(1);
        trace.record(t, field);
      },
      [&] { reject_counter.add(1); });
  out.steps_accepted = stats.steps_accepted;
  out.steps_rejected = stats.steps_rejected;
  out.phase_transitions = stats.boundary_landings;
  out.linear_iterations = stats.step_cost;
  out.final_field = std::move(temps);
  trace.finish(t_end);
  return out;
}

MissionSolution run_fv_mission(ExecutionContext& ctx, const thermal::FvModel& model,
                               const Profile& profile, double t_initial,
                               const AdaptiveOptions& adaptive,
                               const thermal::FvOptions& fv_opts,
                               std::shared_ptr<const thermal::FvAssembly> assembly) {
  const ExecutionContext::Use use(ctx);
  return run_fv_mission(model, profile, t_initial, adaptive, fv_opts, std::move(assembly));
}

rom::RomDrive drive_for_rom(const Profile& profile, rom::RomInputs base_inputs) {
  if (profile.phase_count() == 0) {
    throw std::invalid_argument("mission::drive_for_rom: profile has no phases");
  }
  for (const Phase& phase : profile.phases()) {
    if (phase.h_scale_start != 1.0 || phase.h_scale_end != 1.0) {
      throw std::invalid_argument(
          "mission::drive_for_rom: profile phase '" + phase.name +
          "' scales film coefficients (h_scale != 1); port films are baked into the "
          "reduced operator — run this profile at FV fidelity instead");
    }
  }
  rom::RomDrive drive;
  drive.inputs = [profile, base = std::move(base_inputs)](double t) {
    const EnvironmentState env = profile.environment(t);
    rom::RomInputs in = base;
    for (std::size_t p = 0; p < in.sink_temperatures.size(); ++p) {
      in.sink_temperatures[p] = env.t_ambient;
    }
    for (std::size_t m = 0; m < in.map_powers.size(); ++m) {
      in.map_powers[m] = base.map_powers[m] * env.power_scale;
    }
    return in;
  };
  return drive;
}

MissionSolution run_rom_mission(const rom::RomModel& model, const Profile& profile,
                                double t_initial, const rom::RomInputs& base_inputs,
                                const AdaptiveOptions& adaptive, const thermal::FvGrid* grid) {
  check_mission_arguments(profile, t_initial, adaptive);

  static thread_local obs::CounterHandle steps_counter{"mission.rom_steps"};
  static thread_local obs::CounterHandle reject_counter{"mission.rom_step_rejections"};
  static thread_local obs::CounterHandle phase_counter{"mission.phase_transitions"};
  obs::ScopedTimer span("mission.solve_rom");
  // A reduced model does not carry its source grid, so callers pass it when
  // they want the FV-comparable volume-weighted mean.
  MissionSolution out;
  FieldTrace trace(out, grid, model.basis().rows());

  const double t_end = profile.total_duration();
  rom::RomTransientStepper stepper(model, base_inputs, drive_for_rom(profile, base_inputs));
  numeric::Vector y = stepper.initial_state(t_initial);
  trace.record(0.0, model.reconstruct(y));

  const core::MarchStats stats = core::march_adaptive(
      "mission", stepper, y, t_end, adaptive,
      [&](double t) { return profile.next_transition(t); }, [](std::size_t) {},
      [&](double t, const numeric::Vector& state, bool landed) {
        steps_counter.add(1);
        if (landed) phase_counter.add(1);
        trace.record(t, model.reconstruct(state));
      },
      [&] { reject_counter.add(1); });
  out.steps_accepted = stats.steps_accepted;
  out.steps_rejected = stats.steps_rejected;
  out.phase_transitions = stats.boundary_landings;
  out.linear_iterations = stats.step_cost;
  out.final_field = model.reconstruct(y);
  trace.finish(t_end);
  return out;
}

MissionSolution run_rom_mission(std::shared_ptr<const rom::RomModel> model,
                                const Profile& profile, double t_initial,
                                const rom::RomInputs& base_inputs,
                                const AdaptiveOptions& adaptive, const thermal::FvGrid* grid) {
  if (model == nullptr) {
    throw std::invalid_argument("mission: null reduced model");
  }
  return run_rom_mission(*model, profile, t_initial, base_inputs, adaptive, grid);
}

NetworkMissionSolution run_network_mission(const thermal::ThermalNetwork& net,
                                           const Profile& profile,
                                           const numeric::Vector& initial_temperatures,
                                           const AdaptiveOptions& adaptive,
                                           const thermal::SteadyOptions& opts) {
  if (profile.phase_count() == 0) {
    throw std::invalid_argument("mission: profile has no phases");
  }
  core::check_adaptive_options("mission", adaptive);
  core::check_state_size("mission", initial_temperatures.size(), net.node_count());

  static thread_local obs::CounterHandle steps_counter{"mission.network_steps"};
  static thread_local obs::CounterHandle reject_counter{"mission.network_step_rejections"};
  static thread_local obs::CounterHandle phase_counter{"mission.phase_transitions"};
  obs::ScopedTimer span("mission.solve_network");

  const double t_end = profile.total_duration();
  thermal::NetworkTransientStepper stepper(net, opts, drive_for_network(profile));
  numeric::Vector temps = initial_temperatures;
  stepper.apply_boundaries(0.0, temps);

  NetworkMissionSolution out;
  out.times.push_back(0.0);
  out.node_temperatures.push_back(temps);

  const core::MarchStats stats = core::march_adaptive(
      "mission", stepper, temps, t_end, adaptive,
      [&](double t) { return profile.next_transition(t); }, [](std::size_t) {},
      [&](double t, const numeric::Vector& state, bool landed) {
        steps_counter.add(1);
        if (landed) phase_counter.add(1);
        out.times.push_back(t);
        out.node_temperatures.push_back(state);
      },
      [&] { reject_counter.add(1); });
  out.steps_accepted = stats.steps_accepted;
  out.steps_rejected = stats.steps_rejected;
  out.phase_transitions = stats.boundary_landings;
  out.implicit_solves = stats.step_cost;
  return out;
}

}  // namespace aeropack::mission
