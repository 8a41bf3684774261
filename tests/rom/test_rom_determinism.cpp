// Thread-determinism sweep for the compact-model pipeline: ROM build (basis,
// reduced operators, POD energies), steady/transient evaluation and field
// reconstruction must be bit-identical at 1, 2 and 8 threads — the same
// contract the FV/fem solvers carry, extended through snapshot generation
// and Galerkin projection. Each thread count is an ExecutionContext of that
// many threads; references run serially, with nothing bound. TSan-gated in
// CI alongside the numeric/fem runs.
#include <gtest/gtest.h>

#include <vector>

#include "exec/context.hpp"
#include "rom/canonical.hpp"
#include "rom/rom.hpp"
#include "verify/tolerance.hpp"

namespace an = aeropack::numeric;
namespace ar = aeropack::rom;
namespace av = aeropack::verify;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

const std::vector<std::size_t> kThreadSweep{1, 2, 8};

ar::RomOptions enriched_options() {
  ar::RomOptions opts;
  opts.transient_samples_per_map = 2;
  opts.transient_time_scale = 10.0;
  return opts;
}

ar::RomInputs board_inputs() {
  ar::RomInputs in;
  in.sink_temperatures = {313.15, 318.15, 303.15};
  in.map_powers = {12.0, 8.0};
  return in;
}

void expect_matrix_identical(const an::Matrix& a, const an::Matrix& b, const char* what,
                             std::size_t threads) {
  EXPECT_TRUE(a == b) << what << " diverges at " << threads << " threads";
}

}  // namespace

TEST(RomDeterminism, BuildBitIdenticalAcrossThreadCounts) {
  const ar::CanonicalCase c = ar::fig2_board();
  const ar::RomModel reference = ar::build_rom(c.model, c.spec, enriched_options());
  for (std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    const ar::RomModel rom = ar::build_rom(c.model, c.spec, enriched_options());
    ASSERT_EQ(rom.usable_rank(), reference.usable_rank()) << t;
    expect_matrix_identical(rom.basis(), reference.basis(), "basis", t);
    expect_matrix_identical(rom.reduced_operator(), reference.reduced_operator(), "A_r", t);
    expect_matrix_identical(rom.reduced_capacity(), reference.reduced_capacity(), "C_r", t);
    expect_matrix_identical(rom.input_map(), reference.input_map(), "B_r", t);
    EXPECT_TRUE(av::bitwise_equal(rom.pod_energies(), reference.pod_energies()))
        << "POD energies diverge at " << t << " threads, index "
        << av::first_bitwise_difference(rom.pod_energies(), reference.pod_energies());
  }
}

TEST(RomDeterminism, EvaluationBitIdenticalAcrossThreadCounts) {
  const ar::CanonicalCase c = ar::fig2_board();
  const ar::RomInputs in = board_inputs();
  const ar::RomModel rom1 = ar::build_rom(c.model, c.spec);
  const ar::RomSteadyResult ref_steady = rom1.steady(in);
  const an::Vector ref_field = rom1.reconstruct(ref_steady.reduced_coordinates);
  const ar::RomTransientResult ref_march = rom1.transient(in, 600.0, 30.0, 293.15);
  for (std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, false});
    const ExecutionContext::Use bind(ctx);
    const ar::RomModel rom = ar::build_rom(c.model, c.spec);
    const ar::RomSteadyResult steady = rom.steady(in);
    EXPECT_TRUE(av::bitwise_equal(steady.port_temperatures, ref_steady.port_temperatures)) << t;
    EXPECT_TRUE(av::bitwise_equal(steady.port_heat_flows, ref_steady.port_heat_flows)) << t;
    EXPECT_TRUE(av::bitwise_equal(steady.reduced_coordinates, ref_steady.reduced_coordinates))
        << t;
    const an::Vector field = rom.reconstruct(steady.reduced_coordinates);
    EXPECT_TRUE(av::bitwise_equal(field, ref_field))
        << t << " threads diverge at index " << av::first_bitwise_difference(field, ref_field);
    const ar::RomTransientResult march = rom.transient(in, 600.0, 30.0, 293.15);
    ASSERT_EQ(march.times.size(), ref_march.times.size()) << t;
    for (std::size_t s = 0; s < march.times.size(); ++s)
      EXPECT_TRUE(
          av::bitwise_equal(march.port_temperatures[s], ref_march.port_temperatures[s]))
          << t << " threads, step " << s;
  }
}

TEST(RomDeterminism, ContextPinnedBuildMatchesProcessPool) {
  // Building inside an ExecutionContext (own pool, own registry) must give
  // the exact same compact model as a thread with nothing bound — this is
  // what lets service scenarios build ROMs inside their isolated contexts.
  const ar::CanonicalCase c = ar::seb_box();
  const ar::RomModel reference = ar::build_rom(c.model, c.spec);
  for (std::size_t t : kThreadSweep) {
    ExecutionContext ctx(ExecutionConfig{t, true});
    const ExecutionContext::Use use(ctx);
    const ar::RomModel rom = ar::build_rom(c.model, c.spec);
    expect_matrix_identical(rom.basis(), reference.basis(), "context basis", t);
    expect_matrix_identical(rom.input_map(), reference.input_map(), "context B_r", t);
  }
}
