// The determinism gate of the artifact cache: a cache-hit solve must be
// BITWISE identical to a cold-start solve, per solver family and at 1/2/8
// threads per scenario. Keys hash exact IEEE-754 bit patterns of every
// structural input, builders are deterministic, consumers copy shared
// state before mutating — so equality here is ==, never near().
//
// Runs plain and under TSan in CI (ctest -L svc): the multi-worker cases
// double as race detectors for concurrent artifact sharing.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/scenario_service.hpp"
#include "fem/modal.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/sparse.hpp"
#include "rom/cache.hpp"
#include "rom/canonical.hpp"
#include "rom/service_graphs.hpp"
#include "thermal/fv.hpp"

namespace ac = aeropack::core;
namespace af = aeropack::fem;
namespace ar = aeropack::rom;
namespace at = aeropack::thermal;
namespace am = aeropack::materials;

namespace {

// ---- producer-level gates (no service, direct API) ----------------------

at::FvModel make_slab() {
  at::FvModel slab(at::FvGrid::uniform(0.1, 0.02, 0.01, 16, 4, 4));
  slab.set_material(am::aluminum_6061());
  slab.add_power({0, 16, 0, 4, 0, 4}, 7.5);
  slab.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  slab.set_boundary(at::Face::XMax,
                    at::BoundaryCondition::convection_radiation(12.0, 310.0, 0.8));
  return slab;
}

TEST(ArtifactReuse, FvSharedAssemblySolvesBitIdenticalToCold) {
  const at::FvModel slab = make_slab();
  const at::FvSolution cold = slab.solve_steady();
  const auto assembly = slab.build_assembly();
  // Two consumers of the same shared assembly: the artifact is immutable,
  // each solve works on its own copy of the mutable parts.
  const at::FvSolution warm1 = slab.solve_steady(assembly);
  const at::FvSolution warm2 = slab.solve_steady(assembly);
  EXPECT_EQ(warm1.structure_assemblies, 0u);
  ASSERT_EQ(cold.temperatures.size(), warm1.temperatures.size());
  for (std::size_t i = 0; i < cold.temperatures.size(); ++i) {
    EXPECT_EQ(cold.temperatures[i], warm1.temperatures[i]) << "cell " << i;
    EXPECT_EQ(cold.temperatures[i], warm2.temperatures[i]) << "cell " << i;
  }
  EXPECT_EQ(cold.max_temperature, warm1.max_temperature);
  EXPECT_EQ(cold.energy_residual, warm1.energy_residual);
  EXPECT_EQ(cold.picard_iterations, warm1.picard_iterations);
  EXPECT_EQ(cold.linear_iterations, warm1.linear_iterations);
}

TEST(ArtifactReuse, FvMismatchedAssemblyThrows) {
  const at::FvModel slab = make_slab();
  at::FvModel other(at::FvGrid::uniform(0.1, 0.02, 0.01, 12, 3, 3));
  other.set_material(am::aluminum_6061());
  other.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  EXPECT_THROW(slab.solve_steady(other.build_assembly()), std::invalid_argument);
  EXPECT_THROW(slab.solve_steady(std::shared_ptr<const at::FvAssembly>{}),
               std::invalid_argument);
}

TEST(ArtifactReuse, FvStructuralHashIgnoresLoadsAndBoundaries) {
  at::FvModel a = make_slab();
  at::FvModel b = make_slab();
  b.add_power({0, 4, 0, 4, 0, 4}, 99.0);  // sources: not structural
  b.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(350.0));
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
  at::FvModel c(at::FvGrid::uniform(0.1, 0.02, 0.01, 16, 4, 5));  // grid: structural
  c.set_material(am::aluminum_6061());
  EXPECT_NE(a.structural_hash(), c.structural_hash());
}

TEST(ArtifactReuse, FvAssemblyRefusesATimeStep) {
  // One artifact class: marches apply capacity/dt per step on the assembly
  // steady solves use, so a non-zero inv_dt is refused, by name.
  const at::FvModel slab = make_slab();
  const auto error_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const double inv_dt : {0.5, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_NE(error_of([&] { slab.build_assembly({}, inv_dt); }).find("inv_dt"),
              std::string::npos);
    EXPECT_NE(error_of([&] { slab.structural_hash({}, inv_dt); }).find("inv_dt"),
              std::string::npos);
  }
  EXPECT_EQ(slab.build_assembly({}, 0.0)->structural_hash, slab.structural_hash());
}

TEST(ArtifactReuse, ModalCachedFactorizationSolvesBitIdenticalToCold) {
  af::PlateModel board(0.16, 0.10, 1.6e-3, am::fr4(), 8, 5);
  board.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  board.add_smeared_mass(2.5);
  board.add_point_mass(0.05, 0.05, 0.18);
  aeropack::numeric::CsrMatrix k, m;
  board.reduced_sparse(k, m);
  af::ModalOptions opts;
  opts.n_modes = 6;

  const af::ReducedModes cold = af::solve_reduced_modes(k, m, opts);
  const af::ModalFactorization factor = af::factorize_modal(k, m, opts);
  EXPECT_TRUE(factor.ladder_free);  // clamped plate: K is PD at shift 0
  const af::ReducedModes warm = af::solve_reduced_modes(k, m, opts, factor);

  ASSERT_EQ(cold.eigenvalues.size(), warm.eigenvalues.size());
  for (std::size_t i = 0; i < cold.eigenvalues.size(); ++i) {
    EXPECT_EQ(cold.eigenvalues[i], warm.eigenvalues[i]) << "mode " << i;
    EXPECT_EQ(cold.frequencies_hz[i], warm.frequencies_hz[i]) << "mode " << i;
  }
  for (std::size_t j = 0; j < cold.shapes.cols(); ++j)
    for (std::size_t i = 0; i < cold.shapes.rows(); ++i)
      ASSERT_EQ(cold.shapes(i, j), warm.shapes(i, j)) << i << "," << j;
}

TEST(ArtifactReuse, ModalFactorizationValidatesPencil) {
  af::PlateModel board(0.16, 0.10, 1.6e-3, am::fr4(), 8, 5);
  board.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  board.add_smeared_mass(2.5);
  aeropack::numeric::CsrMatrix k, m;
  board.reduced_sparse(k, m);
  af::ModalOptions opts;
  af::ModalFactorization factor = af::factorize_modal(k, m, opts);
  af::ModalOptions shifted = opts;
  shifted.shift = -100.0;
  EXPECT_THROW(af::solve_reduced_modes(k, m, shifted, factor), std::invalid_argument);
  factor.rows += 1;
  EXPECT_THROW(af::solve_reduced_modes(k, m, opts, factor), std::invalid_argument);
}

TEST(ArtifactReuse, RomCachedModelEvaluatesBitIdenticalToCold) {
  const ar::CanonicalCase cc = ar::fig2_board();
  ac::ArtifactCache cache;
  const auto cold = ar::get_or_build_rom(nullptr, cc.model, cc.spec, {});
  const auto miss = ar::get_or_build_rom(&cache, cc.model, cc.spec, {});
  const auto hit = ar::get_or_build_rom(&cache, cc.model, cc.spec, {});
  EXPECT_EQ(miss.get(), hit.get());  // same cached object
  EXPECT_EQ(cache.stats().hits, 1u);

  ar::RomInputs inputs;
  inputs.sink_temperatures = {313.0, 315.0, 301.0};
  inputs.map_powers = {9.0, 5.5};
  const ar::RomSteadyResult a = cold->steady(inputs);
  const ar::RomSteadyResult b = hit->steady(inputs);
  ASSERT_EQ(a.port_temperatures.size(), b.port_temperatures.size());
  for (std::size_t p = 0; p < a.port_temperatures.size(); ++p) {
    EXPECT_EQ(a.port_temperatures[p], b.port_temperatures[p]);
    EXPECT_EQ(a.port_heat_flows[p], b.port_heat_flows[p]);
  }
}

// ---- service-level gates: cold vs hit through the full stack ------------

// Run the same mixed batch twice through one service (dedup off, so the
// second pass re-executes every scenario against a warm cache) and a third
// time through a cache-less service. All three must agree to the bit, at
// every threads-per-scenario count.
void expect_cold_equals_hit(std::size_t threads_per_scenario, std::size_t workers) {
  std::vector<ac::ScenarioSpec> specs;
  {
    ac::ScenarioSpec fv;
    fv.name = "fv";
    fv.graph = "fv_slab_steady";
    fv.loads = {{"power_w", 6.0}};
    fv.boundaries = {{"t_cold", 300.0}, {"t_hot", 318.0}};
    specs.push_back(fv);
    fv.name = "fv_hot";  // same structure, different loads: shares assembly
    fv.loads = {{"power_w", 11.0}};
    specs.push_back(fv);
    ac::ScenarioSpec modal;
    modal.name = "modal";
    modal.graph = "modal_plate";
    modal.params = {{"mass_x", 0.05}};
    specs.push_back(modal);
    modal.name = "modal_slid";  // same K, different M: shares factorization
    modal.params = {{"mass_x", 0.08}};
    specs.push_back(modal);
    ac::ScenarioSpec rom;
    rom.name = "rom";
    rom.graph = "rom_board_steady";
    rom.loads = {{"cpu", 9.0}, {"psu", 5.5}};
    rom.boundaries = {{"rail_left", 313.0}, {"rail_right", 315.0}, {"top_air", 301.0}};
    specs.push_back(rom);
    rom.name = "rom_var";  // same model, different point: shares the ROM
    rom.loads = {{"cpu", 4.0}, {"psu", 2.0}};
    specs.push_back(rom);
  }

  ac::ScenarioServiceOptions cached_opts;
  cached_opts.workers = workers;
  cached_opts.threads_per_scenario = threads_per_scenario;
  cached_opts.deduplicate = false;  // make the second pass re-execute
  ac::ScenarioService cached(cached_opts);
  ar::register_rom_graphs(cached);
  const std::vector<ac::ScenarioResult> cold = cached.run(specs);
  const std::vector<ac::ScenarioResult> warm = cached.run(specs);
  EXPECT_GT(cached.cache().stats().hits, 0u) << "second pass never hit the cache";

  ac::ScenarioServiceOptions plain_opts = cached_opts;
  plain_opts.use_cache = false;
  ac::ScenarioService uncached(plain_opts);
  ar::register_rom_graphs(uncached);
  const std::vector<ac::ScenarioResult> reference = uncached.run(specs);

  ASSERT_EQ(cold.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(cold[i].ok) << cold[i].name << ": " << cold[i].error;
    ASSERT_TRUE(warm[i].ok) << warm[i].name << ": " << warm[i].error;
    ASSERT_TRUE(reference[i].ok) << reference[i].name << ": " << reference[i].error;
    ASSERT_EQ(cold[i].values.size(), reference[i].values.size()) << cold[i].name;
    for (const auto& [key, value] : reference[i].values) {
      EXPECT_EQ(cold[i].values.at(key), value) << cold[i].name << "." << key << " (cold)";
      EXPECT_EQ(warm[i].values.at(key), value) << warm[i].name << "." << key << " (hit)";
    }
  }
}

TEST(ArtifactReuse, ServiceCacheHitsBitIdenticalAt1Thread) { expect_cold_equals_hit(1, 1); }
TEST(ArtifactReuse, ServiceCacheHitsBitIdenticalAt2Threads) { expect_cold_equals_hit(2, 2); }
TEST(ArtifactReuse, ServiceCacheHitsBitIdenticalAt8Threads) { expect_cold_equals_hit(8, 4); }

// A 48^3 fv_slab_steady (the fv_fine_steady benchmark grid) runs its steady
// solve on multigrid-preconditioned CG: bitwise the same with the cache on
// (a second spec hits the cached assembly and its hierarchy) and off,
// energy-conserving to the benchmark's bound, and within 1e-6 K of a
// Jacobi-CG solve of the same linear system.
TEST(ArtifactReuse, FineSlabAmgSolveIsCacheIndependentAndMatchesJacobi) {
  constexpr std::size_t kCells = 48;
  static_assert(kCells * kCells * kCells >= at::kAmgMinCells);
  const double power_w = 7.0, t_cold = 291.0, t_hot = 327.0;
  ac::ScenarioSpec spec;
  spec.graph = "fv_slab_steady";
  spec.params = {{"nx", kCells}, {"ny", kCells}, {"nz", kCells},
                 {"lx", 0.05},   {"ly", 0.05},   {"lz", 0.05}};
  spec.loads = {{"power_w", power_w}};
  spec.boundaries = {{"t_cold", t_cold}, {"t_hot", t_hot}};
  std::vector<ac::ScenarioSpec> specs{spec, spec};
  specs[0].name = "fine_a";
  specs[1].name = "fine_b";

  ac::ScenarioServiceOptions opts;
  opts.workers = 1;
  opts.threads_per_scenario = 2;
  opts.deduplicate = false;
  ac::ScenarioService cached(opts);
  const std::vector<ac::ScenarioResult> with_cache = cached.run(specs);
  EXPECT_EQ(cached.cache().stats().hits, 1u);
  opts.use_cache = false;
  ac::ScenarioService uncached(opts);
  const std::vector<ac::ScenarioResult> without_cache = uncached.run({specs[0]});

  for (const ac::ScenarioResult& r : with_cache) ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
  ASSERT_TRUE(without_cache[0].ok) << without_cache[0].error;
  for (const auto& [key, value] : without_cache[0].values) {
    EXPECT_EQ(with_cache[0].values.at(key), value) << key << " (cold build)";
    EXPECT_EQ(with_cache[1].values.at(key), value) << key << " (cache hit)";
  }
  const std::map<std::string, double>& out = without_cache[0].values;
  EXPECT_LE(out.at("energy_residual"), 1e-6 * power_w);

  at::FvModel slab(at::FvGrid::uniform(0.05, 0.05, 0.05, kCells, kCells, kCells));
  slab.set_material(am::aluminum_6061());
  slab.add_power(slab.all_cells(), power_w);
  slab.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(t_cold));
  slab.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(t_hot));
  const at::LinearSteadySystem sys = slab.linearize_steady();
  const auto jacobi = aeropack::numeric::conjugate_gradient(sys.matrix, sys.rhs);
  ASSERT_TRUE(jacobi.converged);
  double t_max = -1e300;
  for (const double t : jacobi.x) t_max = std::max(t_max, t);
  EXPECT_NEAR(out.at("t_max"), t_max, 1e-6);
}

}  // namespace
