// Mission transient campaigns: adaptive implicit-Euler marches of an
// FvModel (or ThermalNetwork) through a mission::Profile environment driver
// (DESIGN.md "Mission profiles").
//
// The march is PI-controlled with a step-doubling error estimate: every
// attempted step is computed once at dt and again as two half steps on the
// same shared steady assembly; the max-norm difference of the two end
// fields estimates the local truncation error, the (more accurate) two-half
// solution is the one accepted, and a PI controller picks the next step
// size. Steps are clamped so they never cross a phase boundary of the
// profile — drivers may be discontinuous there (eclipse square waves) and
// stepping across a discontinuity would smear it.
//
// Determinism contract: the controller state is pure double arithmetic and
// every FV kernel underneath uses deterministic chunked reductions, so the
// accepted step sequence — times, fields, counters — is bitwise identical
// at 1, 2 and 8 threads (gated by tests/mission/test_determinism.cpp, plain
// and under TSan).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/transient_engine.hpp"
#include "mission/profile.hpp"
#include "numeric/dense.hpp"
#include "rom/rom.hpp"
#include "rom/transient.hpp"
#include "thermal/fv.hpp"
#include "thermal/network.hpp"

namespace aeropack {
class ExecutionContext;
}

namespace aeropack::mission {

/// Step-size controller options — the engine's options verbatim
/// (core::AdaptiveOptions documents each one). Defaults suit the coarse
/// qualification models (SEB box, Fig. 2 board); tighten `tolerance` for
/// fine grids. One options struct serves every fidelity: the tolerance is
/// in kelvin at FV, network and ROM fidelity alike.
using AdaptiveOptions = core::AdaptiveOptions;

/// One adaptive mission march. Traces are per *accepted* step (index 0 is
/// the initial state); the full per-cell field is kept only for the final
/// time — mission horizons are long and campaigns run by the hundred, so
/// storing every field would defeat the service cache's memory budget.
struct MissionSolution {
  numeric::Vector times;    ///< accepted step end times, [0] = 0
  numeric::Vector t_max;    ///< field max per accepted step [K]
  numeric::Vector t_min;    ///< field min per accepted step [K]
  numeric::Vector t_mean;   ///< volume-average per accepted step [K]
  numeric::Vector final_field;  ///< per-cell field at the horizon [K]
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected = 0;
  std::size_t phase_transitions = 0;  ///< accepted steps landing on a phase boundary
  std::size_t linear_iterations = 0;  ///< total CG iterations (all attempts)
  std::size_t structure_assemblies = 0;  ///< 0 when a shared assembly was supplied
};

/// Build the FV drive of a profile: Convection and NaturalConvection
/// boundaries follow t_ambient, ConvectionRadiation faces follow t_sink,
/// FixedTemperature boundaries follow t_ambient, fixed film coefficients
/// scale by h_scale and volumetric sources by power_scale. Adiabatic and
/// HeatFlux faces are untouched. The drive copies the profile (profiles are
/// small); it stays valid after the profile goes out of scope.
thermal::FvDrive drive_for(const Profile& profile);

/// Network counterpart: every boundary node follows t_ambient and loads
/// scale by power_scale.
thermal::NetworkDrive drive_for_network(const Profile& profile);

/// Reduced-order counterpart: every port sink temperature follows
/// t_ambient and map powers scale by power_scale from `base_inputs` (whose
/// sink entries are overwritten — only its power levels matter). Port film
/// coefficients are baked into the projected operator at build time, so a
/// profile that scales films (h_scale != 1 anywhere) cannot be represented
/// at ROM fidelity and is rejected with std::invalid_argument — use an
/// FV-fidelity mission for those.
rom::RomDrive drive_for_rom(const Profile& profile, rom::RomInputs base_inputs);

/// Adaptively march `model` from a uniform initial temperature through the
/// whole profile ([0, profile.total_duration()]). `assembly` may be a
/// cache-shared *steady* assembly of the model (null assembles once) — the
/// same artifact class steady scenario graphs key in core::ArtifactCache,
/// which is what lets a qualification campaign share one assembly across
/// every mission point. Emits obs counters mission.steps,
/// mission.step_rejections, mission.phase_transitions,
/// mission.cg_iterations and the wall-clock counter
/// mission.wallclock.elapsed_us (never gated — see tools/check_report.py),
/// plus mission.sim_seconds / mission.wall_seconds gauges.
MissionSolution run_fv_mission(const thermal::FvModel& model, const Profile& profile,
                               double t_initial, const AdaptiveOptions& adaptive = {},
                               const thermal::FvOptions& fv_opts = {},
                               std::shared_ptr<const thermal::FvAssembly> assembly = nullptr);

/// Same march pinned to an ExecutionContext: binds `ctx` with
/// ExecutionContext::Use for the call (kernels on its pool, telemetry in its
/// registry). Bit-identical to the unpinned overload at any thread count.
/// Code already running under a bound context — every scenario graph —
/// calls the unpinned overload.
MissionSolution run_fv_mission(ExecutionContext& ctx, const thermal::FvModel& model,
                               const Profile& profile, double t_initial,
                               const AdaptiveOptions& adaptive = {},
                               const thermal::FvOptions& fv_opts = {},
                               std::shared_ptr<const thermal::FvAssembly> assembly = nullptr);

/// Same adaptive march at reduced-order fidelity: the controller, the
/// phase-boundary clamping and the trace layout are identical to
/// run_fv_mission — only the stepper underneath changes
/// (rom::RomTransientStepper on the cached projected operator, zero
/// reprojection per step). Traces and the final field are reconstructed to
/// the full per-cell field so tolerances and trace errors are directly
/// comparable against FV missions; `grid` (the source model's grid) enables
/// the volume-weighted t_mean — null falls back to the plain cell average.
/// In MissionSolution, `linear_iterations` counts reduced dense solves and
/// `structure_assemblies` is always 0. Emits obs counters
/// mission.rom_steps, mission.rom_step_rejections and
/// mission.phase_transitions.
MissionSolution run_rom_mission(const rom::RomModel& model, const Profile& profile,
                                double t_initial, const rom::RomInputs& base_inputs,
                                const AdaptiveOptions& adaptive = {},
                                const thermal::FvGrid* grid = nullptr);

/// Shared-ownership overload for cache-held models (rom::get_or_build_rom):
/// keeps the model alive for the duration of the march.
MissionSolution run_rom_mission(std::shared_ptr<const rom::RomModel> model,
                                const Profile& profile, double t_initial,
                                const rom::RomInputs& base_inputs,
                                const AdaptiveOptions& adaptive = {},
                                const thermal::FvGrid* grid = nullptr);

/// One adaptive lumped-network march. Networks are small, so the full node
/// vector is kept per accepted step (index 0 is the initial state with
/// boundary nodes resolved at t = 0).
struct NetworkMissionSolution {
  numeric::Vector times;  ///< accepted step end times, [0] = 0
  std::vector<numeric::Vector> node_temperatures;  ///< all nodes, per accepted step [K]
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected = 0;
  std::size_t phase_transitions = 0;  ///< accepted steps landing on a phase boundary
  std::size_t implicit_solves = 0;  ///< total Picard passes (all attempts)
};

/// Adaptive mission march of a ThermalNetwork through `profile` via
/// drive_for_network and the same engine/controller as run_fv_mission.
/// `initial_temperatures` holds every node (boundary entries are
/// re-resolved at t = 0 before recording). Emits obs counters
/// mission.network_steps, mission.network_step_rejections and
/// mission.phase_transitions.
NetworkMissionSolution run_network_mission(const thermal::ThermalNetwork& net,
                                           const Profile& profile,
                                           const numeric::Vector& initial_temperatures,
                                           const AdaptiveOptions& adaptive = {},
                                           const thermal::SteadyOptions& opts = {});

}  // namespace aeropack::mission
