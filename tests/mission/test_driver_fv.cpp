// Driver-aware FV transients. The headline regression here is satellite
// truth the undriven overloads cannot express: solve_transient used to
// capture boundary conditions once at t = 0, so a mid-run ambient change
// had no effect on the trajectory. The driven overloads re-resolve the
// environment at every step's end time on the same steady assembly.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "materials/solid.hpp"
#include "thermal/fv.hpp"

namespace at = aeropack::thermal;

namespace {

// Small aluminum slab, convection on both x faces, 4 W dissipated.
at::FvModel make_slab() {
  at::FvModel m(at::FvGrid::uniform(0.06, 0.02, 0.01, 6, 4, 3));
  m.set_material(aeropack::materials::aluminum_6061());
  m.add_power(m.all_cells(), 4.0);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(40.0, 300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::convection(40.0, 300.0));
  return m;
}

double max_abs_diff(const aeropack::numeric::Vector& a, const aeropack::numeric::Vector& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

}  // namespace

TEST(MissionDriverFv, MidRunAmbientChangeChangesTrajectory) {
  // Strong films so the slab (thermal time constant ~3 min here) visibly
  // tracks the ambient within the test window.
  at::FvModel m = make_slab();
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(400.0, 300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::convection(400.0, 300.0));
  const aeropack::numeric::Vector initial(m.grid().cell_count(), 300.0);
  const double t_end = 120.0, dt = 4.0;

  // Frozen environment: the legacy march.
  const at::FvTransientSolution frozen = m.solve_transient(t_end, dt, initial);

  // Ambient steps from 300 K to 340 K at t = 30 s.
  at::FvDrive drive;
  drive.boundary = [](double t, at::Face, const at::BoundaryCondition& bc) {
    at::BoundaryCondition out = bc;
    if (t > 30.0) out.temperature = 340.0;
    return out;
  };
  const at::FvTransientSolution driven = m.solve_transient(t_end, dt, initial, drive);

  ASSERT_EQ(frozen.temperatures.size(), driven.temperatures.size());
  // Identical while the drive matches the stored environment (t <= 28 s)...
  EXPECT_NEAR(max_abs_diff(frozen.temperatures[7], driven.temperatures[7]), 0.0, 1e-6);
  // ...and decisively different after the ambient steps up.
  EXPECT_GT(max_abs_diff(frozen.temperatures.back(), driven.temperatures.back()), 5.0);
  EXPECT_GT(driven.temperatures.back()[0], frozen.temperatures.back()[0]);
}

TEST(MissionDriverFv, NullDriveMatchesUndrivenMarch) {
  const at::FvModel m = make_slab();
  const aeropack::numeric::Vector initial(m.grid().cell_count(), 310.0);
  const at::FvTransientSolution undriven = m.solve_transient(40.0, 4.0, initial);
  const at::FvTransientSolution driven = m.solve_transient(40.0, 4.0, initial, at::FvDrive{});
  // The undriven overloads are the null-drive march: bitwise, every step.
  ASSERT_EQ(undriven.times.size(), driven.times.size());
  EXPECT_EQ(undriven.linear_iterations, driven.linear_iterations);
  for (std::size_t s = 0; s < undriven.times.size(); ++s) {
    EXPECT_EQ(undriven.times[s], driven.times[s]) << s;
    for (std::size_t i = 0; i < undriven.temperatures[s].size(); ++i)
      EXPECT_EQ(undriven.temperatures[s][i], driven.temperatures[s][i]) << s << "/" << i;
  }
}

TEST(MissionDriverFv, PowerScaleScalesVolumetricSourcesOnly) {
  // No volumetric source; heat enters through a prescribed flux. A drive
  // that zeroes power_scale must not touch the flux (it is an environment
  // input, not dissipation).
  at::FvModel m(at::FvGrid::uniform(0.06, 0.02, 0.01, 6, 4, 3));
  m.set_material(aeropack::materials::aluminum_6061());
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::heat_flux(500.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::convection(40.0, 300.0));
  const aeropack::numeric::Vector initial(m.grid().cell_count(), 300.0);

  at::FvDrive zero_power;
  zero_power.power_scale = [](double) { return 0.0; };
  const at::FvTransientSolution a = m.solve_transient(30.0, 3.0, initial, at::FvDrive{});
  const at::FvTransientSolution b = m.solve_transient(30.0, 3.0, initial, zero_power);
  EXPECT_LT(max_abs_diff(a.temperatures.back(), b.temperatures.back()), 1e-12);

  // With a volumetric source the same drive freezes the slab at ambient.
  const at::FvModel heated = make_slab();
  const aeropack::numeric::Vector init2(heated.grid().cell_count(), 300.0);
  const at::FvTransientSolution c = heated.solve_transient(30.0, 3.0, init2, zero_power);
  EXPECT_LT(max_abs_diff(c.temperatures.back(), init2), 1e-9);
  const at::FvTransientSolution d = heated.solve_transient(30.0, 3.0, init2, at::FvDrive{});
  EXPECT_GT(d.temperatures.back()[0], 300.5);
}

TEST(MissionDriverFv, StepperMatchesDrivenSolveTransient) {
  const at::FvModel m = make_slab();
  const std::size_t n = m.grid().cell_count();
  at::FvDrive drive;
  drive.boundary = [](double t, at::Face, const at::BoundaryCondition& bc) {
    at::BoundaryCondition out = bc;
    out.temperature = 300.0 + 0.5 * t;
    return out;
  };

  const aeropack::numeric::Vector initial(n, 300.0);
  const at::FvTransientSolution sol = m.solve_transient(20.0, 2.0, initial, drive);

  at::FvTransientStepper stepper(m);
  aeropack::numeric::Vector temps = initial;
  for (std::size_t s = 1; s <= 10; ++s) stepper.step(temps, 2.0 * s, 2.0, &drive);
  EXPECT_EQ(max_abs_diff(sol.temperatures.back(), temps), 0.0);
}

TEST(MissionDriverFv, SharedSteadyAssemblyIsValidatedAndBitwiseEqual) {
  const at::FvModel m = make_slab();
  const std::size_t n = m.grid().cell_count();
  const aeropack::numeric::Vector initial(n, 305.0);
  at::FvDrive drive;
  drive.power_scale = [](double t) { return t < 10.0 ? 1.2 : 0.8; };

  // An assembly of a different structure is rejected by hash.
  at::FvModel other(at::FvGrid::uniform(0.06, 0.02, 0.01, 5, 4, 3));
  other.set_material(aeropack::materials::aluminum_6061());
  EXPECT_THROW(m.solve_transient(20.0, 2.0, initial, drive, {}, other.build_assembly()),
               std::invalid_argument);

  // The matching steady assembly skips assembly and changes nothing.
  const at::FvTransientSolution cold = m.solve_transient(20.0, 2.0, initial, drive);
  const at::FvTransientSolution shared =
      m.solve_transient(20.0, 2.0, initial, drive, {}, m.build_assembly());
  EXPECT_EQ(cold.structure_assemblies, 1u);
  EXPECT_EQ(shared.structure_assemblies, 0u);
  ASSERT_EQ(cold.temperatures.size(), shared.temperatures.size());
  for (std::size_t s = 0; s < cold.temperatures.size(); ++s)
    EXPECT_EQ(max_abs_diff(cold.temperatures[s], shared.temperatures[s]), 0.0) << "step " << s;
}

TEST(MissionDriverFv, DrivenMarchValidatesArguments) {
  const at::FvModel m = make_slab();
  const aeropack::numeric::Vector initial(m.grid().cell_count(), 300.0);
  const at::FvDrive drive;
  EXPECT_THROW(m.solve_transient(10.0, 0.0, initial, drive), std::invalid_argument);
  EXPECT_THROW(m.solve_transient(-1.0, 1.0, initial, drive), std::invalid_argument);
  const aeropack::numeric::Vector wrong(3, 300.0);
  EXPECT_THROW(m.solve_transient(10.0, 1.0, wrong, drive), std::invalid_argument);
}

TEST(MissionDriverFv, DriveRunsOncePerDistinctStoredConditionPerFace) {
  // 6 x 4 x 3 slab whose XMin face carries a patch over j = 1..2 at k = 1.
  // Walking that face's 12 cell-faces in visit order (j fastest, then k)
  // meets three runs of equal stored conditions: default, patch, default.
  at::FvModel m = make_slab();
  m.set_boundary_patch(at::Face::XMin, {0, 1, 1, 3, 1, 2},
                       at::BoundaryCondition::convection(80.0, 300.0));
  std::size_t calls = 0;
  at::FvDrive drive;
  drive.boundary = [&calls](double, at::Face, const at::BoundaryCondition& bc) {
    ++calls;
    return bc;
  };
  at::FvTransientStepper stepper(m);
  aeropack::numeric::Vector temps(m.grid().cell_count(), 300.0);
  stepper.step(temps, 1.0, 1.0, &drive);
  // One call per run: three on XMin, one on each of the other five faces.
  EXPECT_EQ(calls, 3u + 5u);

  // The memo compares bits: conditions that differ only in the sign of a
  // zero are distinct, and the drive sees both.
  at::FvModel z = make_slab();
  at::BoundaryCondition pos = at::BoundaryCondition::heat_flux(0.0);
  at::BoundaryCondition neg = at::BoundaryCondition::heat_flux(-0.0);
  z.set_boundary(at::Face::YMin, pos);
  z.set_boundary_patch(at::Face::YMin, {0, 3, 0, 1, 0, 3}, neg);
  std::size_t negative_zeros = 0;
  at::FvDrive sign;
  sign.boundary = [&negative_zeros](double, at::Face, const at::BoundaryCondition& bc) {
    if (bc.kind == at::BoundaryKind::HeatFlux && std::signbit(bc.flux)) ++negative_zeros;
    return bc;
  };
  at::FvTransientStepper zstep(z);
  aeropack::numeric::Vector ztemps(z.grid().cell_count(), 300.0);
  zstep.step(ztemps, 1.0, 1.0, &sign);
  // YMin alternates -0 (i = 0..2) and +0 (i = 3..5) on each of its 3 rows.
  EXPECT_EQ(negative_zeros, 3u);
}
