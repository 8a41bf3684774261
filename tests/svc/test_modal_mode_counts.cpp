// The modal path never throws for a valid mode count. The modal_plate
// graph's board has 84 free DOFs: every n_modes from 1 to 84, and 1e6
// (clamped to 84), must succeed through ScenarioService and match the dense
// generalized solve within 1e-10 relative. Subspace widths q with 5q > 84
// (n_modes >= 9) take the exact identity-block Rayleigh-Ritz pass;
// narrower ones iterate from the generic start block, and only they build
// (and cache) a shift-invert factorization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario_service.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/eigen.hpp"

namespace ac = aeropack::core;
namespace af = aeropack::fem;
namespace an = aeropack::numeric;

namespace {

/// The board the modal_plate graph builds with default parameters.
af::PlateModel default_board() {
  af::PlateModel p(0.16, 0.10, 1.6e-3, aeropack::materials::fr4(), 8, 5);
  p.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  p.add_smeared_mass(2.5);
  p.add_point_mass(0.05, 0.05, 0.18);
  p.add_doubler(0.03, 0.13, 0.02, 0.08, 1.8);
  return p;
}

ac::ScenarioSpec modal_spec(double n_modes) {
  ac::ScenarioSpec spec;
  spec.name = "n_modes=" + std::to_string(n_modes);
  spec.graph = "modal_plate";
  spec.params = {{"n_modes", n_modes}};
  return spec;
}

std::uint64_t counter_of(const ac::ScenarioResult& r, const std::string& key) {
  const auto it = r.counters.find(key);
  return it == r.counters.end() ? 0u : it->second;
}

}  // namespace

TEST(ModalModeCounts, EveryModeCountSucceedsAndMatchesTheDensePath) {
  an::CsrMatrix k, m;
  default_board().reduced_sparse(k, m);
  ASSERT_EQ(k.rows(), 84u);
  const an::Vector dense_hz =
      an::natural_frequencies_hz(an::eigen_generalized(k.to_dense(), m.to_dense()));

  std::vector<double> counts;
  for (int n = 1; n <= 84; ++n) counts.push_back(n);
  counts.push_back(1e6);
  std::vector<ac::ScenarioSpec> specs;
  for (const double n : counts) {
    ac::ScenarioSpec spec;
    spec.name = "n_modes=" + std::to_string(n);
    spec.graph = "modal_plate";
    spec.params = {{"n_modes", n}};
    specs.push_back(spec);
  }
  ac::ScenarioService service;
  const std::vector<ac::ScenarioResult> results = service.run(specs);
  ASSERT_EQ(results.size(), counts.size());
  for (std::size_t s = 0; s < results.size(); ++s) {
    const ac::ScenarioResult& r = results[s];
    ASSERT_TRUE(r.ok) << specs[s].name << ": " << r.error;
    ASSERT_EQ(r.values.count("f1_hz"), 1u) << specs[s].name;
    EXPECT_NEAR(r.values.at("f1_hz"), dense_hz[0], 1e-10 * dense_hz[0]) << specs[s].name;
    if (counts[s] > 1) {
      ASSERT_EQ(r.values.count("f2_hz"), 1u) << specs[s].name;
      EXPECT_NEAR(r.values.at("f2_hz"), dense_hz[1], 1e-10 * dense_hz[1]) << specs[s].name;
    }
  }
}

TEST(ModalModeCounts, OnlyIteratingModeCountsFactorizeAndCache) {
  ac::ScenarioServiceOptions uncached;
  uncached.use_cache = false;
  for (const double n_modes : {6.0, 9.0, 20.0}) {
    ac::ScenarioService service;  // fresh cache: the first solve is a miss
    const ac::ScenarioResult r = service.run({modal_spec(n_modes)})[0];
    ac::ScenarioService cold(uncached);
    const ac::ScenarioResult c = cold.run({modal_spec(n_modes)})[0];
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_EQ(r.values.at("f1_hz"), c.values.at("f1_hz")) << n_modes;
    // 84 DOFs: n_modes 6 iterates (q = 14), 9 and 20 take the exact pass.
    const std::uint64_t built = n_modes == 6.0 ? 1u : 0u;
    EXPECT_EQ(counter_of(r, "numeric.skyline.factorizations"), built) << n_modes;
    EXPECT_EQ(counter_of(r, "fem.modal_factorizations"), built) << n_modes;
    EXPECT_EQ(counter_of(r, "svc.cache.insertions"), built) << n_modes;
    if (built == 0) {
      EXPECT_EQ(counter_of(r, "numeric.eigen.subspace_iterations"), 1u) << n_modes;
    }
  }
}
