// Property/contract tests for the compact-model pipeline: input validation
// with clear messages, training-snapshot reproduction at full rank,
// rank-edge rejection, steady physics invariants (superposition, uniform
// states, zero-row-sum port coupling) and transient/steady consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "rom/canonical.hpp"
#include "rom/rom.hpp"

namespace ar = aeropack::rom;
namespace an = aeropack::numeric;
namespace at = aeropack::thermal;

namespace {

/// Cached canonical reductions (the builder is deterministic, so sharing a
/// model between tests cannot couple them).
const ar::CanonicalCase& board_case() {
  static const ar::CanonicalCase c = ar::fig2_board();
  return c;
}

const ar::RomModel& board_rom() {
  static const ar::RomModel rom = ar::build_rom(board_case().model, board_case().spec);
  return rom;
}

ar::RomInputs board_inputs() {
  ar::RomInputs in;
  in.sink_temperatures = {313.15, 318.15, 303.15};
  in.map_powers = {12.0, 8.0};
  return in;
}

template <typename Ex, typename Fn>
void expect_throw_containing(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected exception containing '" << fragment << "'";
  } catch (const Ex& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message was: " << e.what();
  }
}

}  // namespace

TEST(RomContracts, ReproducesTrainingSnapshotsToRoundOff) {
  // The POD basis spans the full snapshot set at usable rank, so the worst
  // relative reconstruction error over the training set must be round-off.
  // training_residual() subtracts two nearly equal energies, so its floor is
  // ~sqrt(machine eps) relative, not eps — hence the 1e-7 bound.
  const ar::RomModel& rom = board_rom();
  EXPECT_EQ(rom.rank(), rom.usable_rank());
  EXPECT_LT(rom.training_residual(), 1e-7);
  EXPECT_LT(rom.error_estimate(), 1e-6);
}

TEST(RomContracts, SteadyMatchesUnitSnapshotResponse) {
  // Sinks all zero, map "cpu" at 1 W is exactly training snapshot #3 —
  // steady() must reproduce its port temperatures through the projection.
  const ar::RomModel& rom = board_rom();
  ar::RomInputs in;
  in.sink_temperatures = {0.0, 0.0, 0.0};
  in.map_powers = {1.0, 0.0};
  const ar::RomSteadyResult out = rom.steady(in);
  // 1 W into a railed board: small positive rise at every port.
  for (std::size_t p = 0; p < rom.port_count(); ++p) {
    EXPECT_GT(out.port_temperatures[p], 0.0);
    EXPECT_LT(out.port_temperatures[p], 5.0);
  }
  // All dissipation leaves through the ports: heat INTO the body sums to -1 W.
  double total = 0.0;
  for (double q : out.port_heat_flows) total += q;
  EXPECT_NEAR(total, -1.0, 1e-6);
}

TEST(RomContracts, UniformSinksZeroPowerIsUniformState) {
  const ar::RomModel& rom = board_rom();
  ar::RomInputs in;
  in.sink_temperatures = {293.15, 293.15, 293.15};
  in.map_powers = {0.0, 0.0};
  const ar::RomSteadyResult out = rom.steady(in);
  for (std::size_t p = 0; p < rom.port_count(); ++p) {
    EXPECT_NEAR(out.port_temperatures[p], 293.15, 1e-6);
    EXPECT_NEAR(out.port_heat_flows[p], 0.0, 1e-6);
  }
}

TEST(RomContracts, SteadyIsSuperposition) {
  const ar::RomModel& rom = board_rom();
  ar::RomInputs a, b, sum;
  a.sink_temperatures = {300.0, 310.0, 295.0};
  a.map_powers = {5.0, 0.0};
  b.sink_temperatures = {10.0, -5.0, 2.0};
  b.map_powers = {0.0, 3.0};
  sum.sink_temperatures = {310.0, 305.0, 297.0};
  sum.map_powers = {5.0, 3.0};
  const auto ra = rom.steady(a), rb = rom.steady(b), rs = rom.steady(sum);
  for (std::size_t p = 0; p < rom.port_count(); ++p) {
    EXPECT_NEAR(ra.port_temperatures[p] + rb.port_temperatures[p], rs.port_temperatures[p], 1e-8);
    EXPECT_NEAR(ra.port_heat_flows[p] + rb.port_heat_flows[p], rs.port_heat_flows[p], 1e-8);
  }
}

TEST(RomContracts, PortConductanceSymmetricZeroRowSums) {
  const an::Matrix k = board_rom().port_conductance_matrix();
  ASSERT_TRUE(k.square());
  EXPECT_LT(k.asymmetry(), 1e-10);
  for (std::size_t p = 0; p < k.rows(); ++p) {
    double row = 0.0;
    for (std::size_t q = 0; q < k.cols(); ++q) row += k(p, q);
    EXPECT_NEAR(row, 0.0, 1e-8) << "port " << p;
    EXPECT_GT(k(p, p), 0.0);
    for (std::size_t q = 0; q < k.cols(); ++q) {
      if (q != p) {
        EXPECT_LT(k(p, q), 0.0);
      }
    }
  }
}

TEST(RomContracts, PowerSplitColumnsSumToOne) {
  const an::Matrix w = board_rom().port_power_split();
  for (std::size_t m = 0; m < w.cols(); ++m) {
    double col = 0.0;
    for (std::size_t p = 0; p < w.rows(); ++p) {
      EXPECT_GT(w(p, m), 0.0);
      col += w(p, m);
    }
    EXPECT_NEAR(col, 1.0, 1e-8) << "map " << m;
  }
}

TEST(RomContracts, InputSizeMismatchThrows) {
  const ar::RomModel& rom = board_rom();
  ar::RomInputs bad_ports;
  bad_ports.sink_temperatures = {300.0, 300.0};  // 2 of 3
  bad_ports.map_powers = {0.0, 0.0};
  expect_throw_containing<std::invalid_argument>([&] { rom.steady(bad_ports); },
                                                 "port sink temperatures");
  expect_throw_containing<std::invalid_argument>(
      [&] { rom.transient(bad_ports, 10.0, 1.0, 293.15); }, "port sink temperatures");

  ar::RomInputs bad_maps;
  bad_maps.sink_temperatures = {300.0, 300.0, 300.0};
  bad_maps.map_powers = {1.0};  // 1 of 2
  expect_throw_containing<std::invalid_argument>([&] { rom.steady(bad_maps); }, "map powers");

  at::FvModel model = board_case().model;
  expect_throw_containing<std::invalid_argument>(
      [&] { ar::apply_inputs(model, board_case().spec, bad_maps); }, "map powers");
}

TEST(RomContracts, RankEdgeCasesRejectedWithClearMessages) {
  const ar::RomModel& rom = board_rom();
  expect_throw_containing<std::invalid_argument>([&] { rom.at_rank(0); }, "at least 1");
  expect_throw_containing<std::invalid_argument>([&] { rom.at_rank(rom.usable_rank() + 1); },
                                                 "usable basis rank");

  ar::RomOptions zero;
  zero.rank = 0;
  expect_throw_containing<std::invalid_argument>(
      [&] { ar::build_rom(board_case().model, board_case().spec, zero); }, "at least 1");

  ar::RomOptions huge;
  huge.rank = 10'000;
  expect_throw_containing<std::invalid_argument>(
      [&] { ar::build_rom(board_case().model, board_case().spec, huge); },
      "exceeds the usable basis rank");
}

TEST(RomContracts, SpecValidationRejectsBadLayouts) {
  const at::FvModel& model = board_case().model;
  {
    ar::RomSpec empty;
    expect_throw_containing<std::invalid_argument>([&] { ar::build_rom(model, empty); },
                                                   "at least one port");
  }
  {
    ar::RomSpec spec = board_case().spec;
    spec.ports[0].h = 0.0;
    expect_throw_containing<std::invalid_argument>([&] { ar::build_rom(model, spec); },
                                                   "film coefficient");
  }
  {
    ar::RomSpec spec = board_case().spec;
    spec.ports[1].name = spec.ports[0].name;
    expect_throw_containing<std::invalid_argument>([&] { ar::build_rom(model, spec); },
                                                   "duplicate port name");
  }
  {
    // Two ports on the same face cells must be rejected, not last-wins.
    ar::RomSpec spec = board_case().spec;
    ar::RomPort clone = spec.ports[0];
    clone.name = "rail_left_copy";
    spec.ports.push_back(clone);
    expect_throw_containing<std::invalid_argument>([&] { ar::build_rom(model, spec); },
                                                   "overlap");
  }
  {
    ar::RomSpec spec = board_case().spec;
    spec.maps[0].regions[0].weight = -1.0;
    expect_throw_containing<std::invalid_argument>([&] { ar::build_rom(model, spec); },
                                                   "weights must be > 0");
  }
  {
    ar::RomOptions opts;
    opts.transient_samples_per_map = 2;  // no time scale set
    expect_throw_containing<std::invalid_argument>(
        [&] { ar::build_rom(model, board_case().spec, opts); }, "transient_time_scale");
  }
}

TEST(RomContracts, AtRankIsNestedTruncation) {
  const ar::RomModel& rom = board_rom();
  const ar::RomModel same = rom.at_rank(rom.rank());
  const ar::RomInputs in = board_inputs();
  const auto a = rom.steady(in), b = same.steady(in);
  for (std::size_t p = 0; p < rom.port_count(); ++p)
    EXPECT_EQ(a.port_temperatures[p], b.port_temperatures[p]);

  // Truncation keeps the leading modes: the rank-r reduced coordinates are a
  // prefix of the full ones only in the training sense, but the estimate
  // must grow (or stay) as modes are dropped.
  double prev = rom.error_estimate();
  for (std::size_t r = rom.usable_rank(); r-- > 1;) {
    const double est = rom.at_rank(r).error_estimate();
    EXPECT_GE(est, prev);
    prev = est;
  }
}

TEST(RomContracts, TransientSemanticsMatchFullSolver) {
  const ar::RomModel& rom = board_rom();
  const ar::RomInputs in = board_inputs();
  EXPECT_THROW(rom.transient(in, 10.0, 0.0, 293.15), std::invalid_argument);
  EXPECT_THROW(rom.transient(in, 0.0, 1.0, 293.15), std::invalid_argument);

  // dt > t_end clamps to a single step of t_end.
  const auto clamped = rom.transient(in, 5.0, 50.0, 293.15);
  ASSERT_EQ(clamped.times.size(), 2u);
  EXPECT_DOUBLE_EQ(clamped.times[0], 0.0);
  EXPECT_DOUBLE_EQ(clamped.times[1], 5.0);

  // t = 0 reports the uniform initial state.
  const auto march = rom.transient(in, 2000.0, 100.0, 293.15);
  for (std::size_t p = 0; p < rom.port_count(); ++p)
    EXPECT_NEAR(march.port_temperatures.front()[p], 293.15, 0.5);

  // A long march settles onto the steady solution.
  const auto steady = rom.steady(in);
  const auto settled = rom.transient(in, 2.0e5, 500.0, 293.15);
  for (std::size_t p = 0; p < rom.port_count(); ++p)
    EXPECT_NEAR(settled.port_temperatures.back()[p], steady.port_temperatures[p], 1e-3);
}

TEST(RomContracts, ReconstructValidatesCoordinateSize) {
  const ar::RomModel& rom = board_rom();
  an::Vector wrong(rom.rank() + 1, 0.0);
  EXPECT_THROW(rom.reconstruct(wrong), std::invalid_argument);
  const an::Vector field = rom.steady_field(board_inputs());
  EXPECT_EQ(field.size(), rom.cell_count());
}

TEST(RomContracts, TransientEnrichmentAddsUsableModes) {
  ar::RomOptions enriched;
  enriched.transient_samples_per_map = 3;
  enriched.transient_time_scale = 5.0;
  const ar::RomModel rom = ar::build_rom(board_case().model, board_case().spec, enriched);
  EXPECT_GT(rom.build_info().snapshot_count, board_rom().build_info().snapshot_count);
  EXPECT_GE(rom.usable_rank(), board_rom().usable_rank());
  EXPECT_LT(rom.training_residual(), 1e-7);
}
