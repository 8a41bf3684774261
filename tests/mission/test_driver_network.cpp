// Driver-aware ThermalNetwork transients: the lumped counterpart of the FV
// regression — boundary temperatures and loads follow the drive at every
// step's end time, and the undriven overloads are exactly the null-drive
// special case of the same march.
#include <gtest/gtest.h>

#include <cmath>

#include "thermal/network.hpp"

namespace at = aeropack::thermal;

namespace {

struct Rig {
  at::ThermalNetwork net;
  at::NodeId box = 0, sink = 0;
};

Rig make_rig(double load_w = 50.0) {
  Rig r;
  r.box = r.net.add_node("box", 2000.0);
  r.sink = r.net.add_boundary("sink", 300.0);
  r.net.add_conductor(r.box, r.sink, 5.0);
  r.net.add_heat_load(r.box, load_w);
  return r;
}

}  // namespace

TEST(MissionDriverNetwork, NullEquivalentDriveIsBitwiseIdentical) {
  const Rig r = make_rig();
  const aeropack::numeric::Vector initial(r.net.node_count(), 300.0);
  const at::TransientSolution undriven = r.net.solve_transient(100.0, 5.0, initial);

  at::NetworkDrive identity;
  identity.boundary_temperature = [](double, at::NodeId, double stored) { return stored; };
  identity.load_scale = [](double) { return 1.0; };
  const at::TransientSolution driven = r.net.solve_transient(100.0, 5.0, initial, identity);

  ASSERT_EQ(undriven.times.size(), driven.times.size());
  for (std::size_t s = 0; s < undriven.times.size(); ++s)
    for (std::size_t i = 0; i < undriven.temperatures[s].size(); ++i)
      EXPECT_EQ(undriven.temperatures[s][i], driven.temperatures[s][i]) << s << "/" << i;
}

TEST(MissionDriverNetwork, MidRunBoundaryChangeChangesTrajectory) {
  const Rig r = make_rig();
  const aeropack::numeric::Vector initial(r.net.node_count(), 300.0);
  const at::TransientSolution frozen = r.net.solve_transient(200.0, 5.0, initial);

  at::NetworkDrive drive;
  drive.boundary_temperature = [](double t, at::NodeId, double stored) {
    return t > 100.0 ? stored + 30.0 : stored;
  };
  const at::TransientSolution driven = r.net.solve_transient(200.0, 5.0, initial, drive);

  // Same march until the jump, warmer box afterwards.
  EXPECT_DOUBLE_EQ(frozen.temperatures[10][r.box], driven.temperatures[10][r.box]);
  EXPECT_GT(driven.temperatures.back()[r.box], frozen.temperatures.back()[r.box] + 5.0);
  // The boundary row itself reports the driven value.
  EXPECT_DOUBLE_EQ(driven.temperatures.back()[r.sink], 330.0);
}

TEST(MissionDriverNetwork, LoadScaleDutyCyclesDissipation) {
  const Rig r = make_rig(80.0);
  const aeropack::numeric::Vector initial(r.net.node_count(), 316.0);  // steady: 300 + 80/5
  at::NetworkDrive off;
  off.load_scale = [](double) { return 0.0; };
  const at::TransientSolution cooled = r.net.solve_transient(4000.0, 20.0, initial, off);
  // With the load off the box relaxes to the 300 K sink.
  EXPECT_NEAR(cooled.temperatures.back()[r.box], 300.0, 0.5);
  const at::TransientSolution held = r.net.solve_transient(4000.0, 20.0, initial);
  EXPECT_NEAR(held.temperatures.back()[r.box], 316.0, 1e-6);
}

TEST(MissionDriverNetwork, ErrorNormIgnoresBoundaryNodes) {
  // Boundary nodes follow the drive, so two candidate states may differ
  // there without any integration error; only diffusion nodes count.
  const Rig r = make_rig();
  const at::NetworkTransientStepper stepper(r.net);
  aeropack::numeric::Vector a(r.net.node_count(), 300.0);
  aeropack::numeric::Vector b = a;
  b[r.sink] = 420.0;
  EXPECT_EQ(stepper.error_norm(a, b), 0.0);
  b[r.box] = 300.25;
  EXPECT_EQ(stepper.error_norm(a, b), 0.25);
}
