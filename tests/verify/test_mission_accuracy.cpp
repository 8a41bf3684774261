// Mission accuracy: the adaptive march's fields against a reference that
// does not share its error. The SEB box is marched through a DO-160 shock
// and a two-orbit CubeSat eclipse at the default tolerance, and every
// accepted state is compared with Richardson-extrapolated implicit Euler
// (2 y(dt/2) - y(dt), second order) whose substeps of at most 0.5 s land on
// each accepted time. The tolerance bounds the estimated local error of one
// step; the test asks more of the controller: the worst field error over
// every accepted state of the whole march stays within it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/transient_engine.hpp"
#include "mission/profile.hpp"
#include "mission/transient.hpp"
#include "numeric/dense.hpp"
#include "rom/canonical.hpp"
#include "thermal/fv.hpp"

namespace ac = aeropack::core;
namespace am = aeropack::mission;
namespace ar = aeropack::rom;
namespace at = aeropack::thermal;
using aeropack::numeric::Vector;

namespace {

constexpr double kInitial = 293.15;

/// The SEB box as the FV mission graphs build it: every port film at the
/// profile's first sink temperature, the given board and supply loads.
at::FvModel seb_box(double t_sink0, double pcb_w, double psu_w) {
  ar::CanonicalCase cc = ar::seb_box();
  ar::RomInputs inputs;
  inputs.sink_temperatures.assign(cc.spec.ports.size(), t_sink0);
  for (const ar::RomPowerMap& m : cc.spec.maps)
    inputs.map_powers.push_back(m.name == "pcb_components" ? pcb_w : psu_w);
  ar::apply_inputs(cc.model, cc.spec, inputs);
  return std::move(cc.model);
}

/// Accepted times and fields of the adaptive march run_fv_mission runs.
struct AdaptiveRun {
  std::vector<double> times;
  std::vector<Vector> fields;
};

AdaptiveRun adaptive_march(const at::FvModel& model, const am::Profile& profile,
                           const am::AdaptiveOptions& adaptive) {
  const at::FvDrive drive = am::drive_for(profile);
  at::FvTransientStepper stepper(model);
  stepper.set_drive(&drive);
  Vector temps(model.grid().cell_count(), kInitial);
  AdaptiveRun run;
  ac::march_adaptive(
      "mission", stepper, temps, profile.total_duration(), adaptive,
      [&](double t) { return profile.next_transition(t); }, [](std::size_t) {},
      [&](double t, const Vector& field, bool) {
        run.times.push_back(t);
        run.fields.push_back(field);
      },
      [] {});
  return run;
}

/// Implicit Euler from the same initial state, landing on each of `times`:
/// every interval is split into the fewest equal substeps of at most
/// `max_substep`.
std::vector<Vector> implicit_euler_at(const at::FvModel& model, const am::Profile& profile,
                                      const std::vector<double>& times, double max_substep) {
  const at::FvDrive drive = am::drive_for(profile);
  at::FvTransientStepper stepper(model);
  stepper.set_drive(&drive);
  Vector temps(model.grid().cell_count(), kInitial);
  std::vector<Vector> fields;
  double t = 0.0;
  for (const double t_end : times) {
    const double span = t_end - t;
    const auto substeps = static_cast<std::size_t>(std::ceil(span / max_substep));
    for (std::size_t s = 1; s <= substeps; ++s) {
      const double t_next =
          s == substeps ? t_end : t + span * static_cast<double>(s) / static_cast<double>(substeps);
      stepper.step(temps, t_next, span / static_cast<double>(substeps));
    }
    fields.push_back(temps);
    t = t_end;
  }
  return fields;
}

/// Worst |adaptive - reference| over every cell of every accepted state.
double worst_field_error(const at::FvModel& model, const am::Profile& profile,
                         const AdaptiveRun& run) {
  const std::vector<Vector> coarse = implicit_euler_at(model, profile, run.times, 0.5);
  const std::vector<Vector> fine = implicit_euler_at(model, profile, run.times, 0.25);
  double worst = 0.0;
  for (std::size_t s = 0; s < run.times.size(); ++s)
    for (std::size_t c = 0; c < run.fields[s].size(); ++c) {
      const double reference = 2.0 * fine[s][c] - coarse[s][c];
      worst = std::max(worst, std::abs(run.fields[s][c] - reference));
    }
  return worst;
}

void expect_within_tolerance(const at::FvModel& model, const am::Profile& profile,
                             const std::string& label) {
  const am::AdaptiveOptions adaptive;  // the default tolerance
  const AdaptiveRun run = adaptive_march(model, profile, adaptive);
  ASSERT_FALSE(run.times.empty()) << label;
  EXPECT_EQ(run.times.back(), profile.total_duration()) << label;
  // The march above is the production one, bit for bit.
  EXPECT_EQ(run.fields.back(), am::run_fv_mission(model, profile, kInitial).final_field)
      << label;
  const double worst = worst_field_error(model, profile, run);
  EXPECT_LE(worst, adaptive.tolerance)
      << label << ": worst field error " << worst << " K over " << run.times.size()
      << " accepted states";
}

}  // namespace

TEST(MissionAccuracy, Do160ShockStaysWithinToleranceOfTheReference) {
  expect_within_tolerance(seb_box(228.15, 30.0, 15.0),
                          am::Profile::do160_thermal_shock(228.15, 328.15, 25.0, 240.0),
                          "DO-160 shock");
}

TEST(MissionAccuracy, EclipseOrbitsStayWithinToleranceOfTheReference) {
  expect_within_tolerance(seb_box(313.15, 30.0, 10.0),
                          am::Profile::cubesat_eclipse(2, 600.0, 0.35, 313.15, 213.15, 0.6),
                          "eclipse");
}
