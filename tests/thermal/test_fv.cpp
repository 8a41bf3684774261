// 3-D finite-volume conduction solver.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "materials/solid.hpp"
#include "thermal/fv.hpp"

namespace at = aeropack::thermal;
namespace am = aeropack::materials;

namespace {
at::FvModel slab_model(std::size_t nx, double k) {
  // 1 m x 0.1 m x 0.1 m bar discretized along x.
  at::FvModel m(at::FvGrid::uniform(1.0, 0.1, 0.1, nx, 1, 1));
  at::CellRange all = m.all_cells();
  m.set_conductivity(all, k, k, k);
  return m;
}
}  // namespace

TEST(FvGrid, IndexingAndVolumes) {
  const auto g = at::FvGrid::uniform(1.0, 2.0, 3.0, 2, 4, 6);
  EXPECT_EQ(g.cell_count(), 48u);
  EXPECT_DOUBLE_EQ(g.cell_volume(0, 0, 0), 0.5 * 0.5 * 0.5);
  EXPECT_DOUBLE_EQ(g.lx(), 1.0);
  EXPECT_DOUBLE_EQ(g.lz(), 3.0);
  EXPECT_DOUBLE_EQ(g.x_center(1), 0.75);
}

TEST(FvGrid, InvalidInputsThrow) {
  EXPECT_THROW(at::FvGrid::uniform(0.0, 1.0, 1.0, 2, 2, 2), std::invalid_argument);
  EXPECT_THROW(at::FvGrid::uniform(1.0, 1.0, 1.0, 0, 2, 2), std::invalid_argument);
  EXPECT_THROW(at::FvGrid({1.0, -1.0}, {1.0}, {1.0}), std::invalid_argument);
}

TEST(FvModel, OneDFixedTemperatureLinearProfile) {
  // Fixed 400 K at x=0, 300 K at x=1: linear profile, flux = k A dT / L.
  auto m = slab_model(20, 10.0);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(400.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(300.0));
  const auto sol = m.solve_steady();
  ASSERT_TRUE(sol.converged);
  // Cell centers: T(x) = 400 - 100 x.
  for (std::size_t i = 0; i < 20; ++i) {
    const double x = m.grid().x_center(i);
    EXPECT_NEAR(sol.temperatures[m.grid().index(i, 0, 0)], 400.0 - 100.0 * x, 1e-6);
  }
  EXPECT_LT(sol.energy_residual, 1e-8);
}

TEST(FvModel, UniformSourceParabolicProfile) {
  // Insulated except fixed ends at 300 K with uniform volumetric source:
  // T(x) = 300 + q'''/(2k) x (L - x); peak at center = 300 + q''' L^2 / (8 k).
  const double k = 5.0;
  const double power = 100.0;  // W over volume 0.01 m^3 -> q''' = 1e4 W/m^3
  auto m = slab_model(40, k);
  m.add_power(m.all_cells(), power);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(300.0));
  const auto sol = m.solve_steady();
  const double qv = power / 0.01;
  const double peak_expected = 300.0 + qv * 1.0 / (8.0 * k);
  EXPECT_NEAR(sol.max_temperature, peak_expected, 0.5);
}

TEST(FvModel, ConvectionBoundaryMatchesLumpedResistance) {
  // All heat leaves through one convective face: T_cell ~ T_inf + q/(hA) + half-cell.
  auto m = slab_model(10, 100.0);
  m.add_power(m.all_cells(), 50.0);
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::convection(20.0, 300.0));
  const auto sol = m.solve_steady();
  // Face area 0.01 m^2, h = 20: film rise = 50 / (20 * 0.01) = 250 K.
  const double t_face_cell = sol.temperatures[m.grid().index(9, 0, 0)];
  EXPECT_GT(t_face_cell, 300.0 + 250.0);
  EXPECT_LT(sol.energy_residual, 1e-6 * 50.0 + 1e-9);
}

TEST(FvModel, EnergyConservedWithMixedBoundaries) {
  at::FvModel m(at::FvGrid::uniform(0.2, 0.15, 0.002, 8, 6, 2));
  m.set_material(am::aluminum_6061());
  m.add_power({2, 5, 2, 4, 0, 2}, 30.0);
  m.set_boundary(at::Face::ZMax, at::BoundaryCondition::convection(50.0, 320.0));
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(310.0));
  const auto sol = m.solve_steady();
  ASSERT_TRUE(sol.converged);
  EXPECT_LT(sol.energy_residual, 1e-6 * 30.0 + 1e-9);
}

TEST(FvModel, RadiationBoundaryPicardConverges) {
  auto m = slab_model(10, 50.0);
  m.add_power(m.all_cells(), 20.0);
  m.set_boundary(at::Face::XMax,
                 at::BoundaryCondition::convection_radiation(5.0, 300.0, 0.9));
  const auto sol = m.solve_steady();
  ASSERT_TRUE(sol.converged);
  EXPECT_GT(sol.picard_iterations, 1u);
  EXPECT_LT(sol.energy_residual, 0.01);
}

TEST(FvModel, PicardLoopAssemblesStructureOnce) {
  // Nonlinear (radiation) boundary forces multiple Picard passes, but the
  // CSR structure must be assembled exactly once — passes only rewrite the
  // boundary film terms in place.
  auto m = slab_model(10, 50.0);
  m.add_power(m.all_cells(), 20.0);
  m.set_boundary(at::Face::XMax,
                 at::BoundaryCondition::convection_radiation(5.0, 300.0, 0.9));
  const auto sol = m.solve_steady();
  ASSERT_TRUE(sol.converged);
  EXPECT_GT(sol.picard_iterations, 1u);
  EXPECT_EQ(sol.structure_assemblies, 1u);
}

TEST(FvModel, TransientAssemblesStructureOnceAndWarmStarts) {
  at::FvModel m(at::FvGrid::uniform(0.02, 0.02, 0.02, 4, 4, 4));
  m.set_material(am::aluminum_6061());
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(50.0, 300.0));
  const auto tr = m.solve_transient(10.0, 0.5, 350.0);
  EXPECT_EQ(tr.structure_assemblies, 1u);
  EXPECT_EQ(tr.temperatures.size(), 21u);
  // Warm-started steps converge in far fewer inner iterations than the
  // dimension bound (64 unknowns) per step would allow from a cold start.
  EXPECT_GT(tr.linear_iterations, 0u);
  EXPECT_LT(tr.linear_iterations, 20u * 64u);
}

TEST(FvModel, NoSinkThrows) {
  auto m = slab_model(4, 10.0);
  m.add_power(m.all_cells(), 1.0);
  EXPECT_THROW(m.solve_steady(), std::logic_error);
}

TEST(FvModel, HeatFluxBoundaryInjectsPower) {
  auto m = slab_model(10, 10.0);
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::heat_flux(1000.0));  // 10 W over 0.01
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(300.0));
  const auto sol = m.solve_steady();
  // Flux 1000 W/m^2 enters at x=0; the first cell center sits at x=0.05 and
  // the fixed boundary acts at the x=1 face: dT = q'' (1 - 0.05) / k = 95 K.
  const double t_hot = sol.temperatures[m.grid().index(0, 0, 0)];
  EXPECT_NEAR(t_hot, 395.0, 1.0);
}

TEST(FvModel, AnisotropicConductivityDirectional) {
  // kx >> kz (a heat-pipe drain along x): the in-plane path to the cold end
  // must lower the peak relative to a low-k isotropic board.
  const auto peak_for = [](double kx) {
    at::FvModel m(at::FvGrid::uniform(0.1, 0.02, 0.002, 10, 2, 2));
    m.set_conductivity(m.all_cells(), kx, 1.0, 0.3);
    m.add_power({0, 1, 0, 2, 0, 2}, 5.0);
    m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(300.0));
    m.set_boundary(at::Face::ZMax, at::BoundaryCondition::convection(5.0, 300.0));
    const auto sol = m.solve_steady();
    EXPECT_TRUE(sol.converged);
    return sol.max_temperature;
  };
  EXPECT_LT(peak_for(200.0) + 20.0, peak_for(1.0));
}

TEST(FvModel, PatchOverridesDefaultBoundary) {
  auto m = slab_model(10, 10.0);
  m.add_power(m.all_cells(), 10.0);
  m.set_boundary(at::Face::XMax, at::BoundaryCondition::adiabatic());
  // Open a fixed-temperature window on part of the XMax face.
  at::CellRange patch{0, 0, 0, 1, 0, 1};
  m.set_boundary_patch(at::Face::XMax, patch, at::BoundaryCondition::fixed(300.0));
  const auto sol = m.solve_steady();
  ASSERT_TRUE(sol.converged);
  EXPECT_GT(sol.max_temperature, 300.0);
}

TEST(FvModel, TransientLumpedCoolingMatchesExponential) {
  // Small aluminum block cooling through convection: lumped tau = rho cp V / (h A).
  at::FvModel m(at::FvGrid::uniform(0.02, 0.02, 0.02, 2, 2, 2));
  m.set_material(am::aluminum_6061());
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::convection(50.0, 300.0));
  const double rho_cp = 2700.0 * 896.0;
  const double tau = rho_cp * 8e-6 / (50.0 * 4e-4);
  const auto tr = m.solve_transient(tau, tau / 200.0, 350.0);
  const double t_end = tr.temperatures.back()[0];
  // After one time constant: dT ~ 50 * exp(-1) (Biot is small, lumped valid).
  EXPECT_NEAR(t_end - 300.0, 50.0 * std::exp(-1.0), 1.5);
}

TEST(FvModel, MeshRefinementConverges) {
  // Peak temperature of the parabolic-profile problem converges with mesh.
  const double k = 5.0;
  double prev_err = 1e9;
  for (std::size_t n : {5u, 10u, 20u, 40u}) {
    auto m = slab_model(n, k);
    m.add_power(m.all_cells(), 100.0);
    m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
    m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(300.0));
    const auto sol = m.solve_steady();
    const double exact = 300.0 + 1e4 / (8.0 * k);
    const double err = std::fabs(sol.max_temperature - exact);
    EXPECT_LE(err, prev_err + 1e-9);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 0.5);
}

TEST(FvModel, ArithmeticSchemeDiffersOnContrast) {
  // Two-material bar: harmonic mean handles the jump correctly; arithmetic
  // overestimates the interface conductance.
  auto make = [](at::FaceConductanceScheme scheme) {
    at::FvModel m(at::FvGrid::uniform(1.0, 0.1, 0.1, 20, 1, 1));
    m.set_conductivity({0, 10, 0, 1, 0, 1}, 100.0, 100.0, 100.0);
    m.set_conductivity({10, 20, 0, 1, 0, 1}, 1.0, 1.0, 1.0);
    m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(400.0));
    m.set_boundary(at::Face::XMax, at::BoundaryCondition::fixed(300.0));
    at::FvOptions opts;
    opts.scheme = scheme;
    return m.solve_steady(opts);
  };
  const auto harm = make(at::FaceConductanceScheme::HarmonicMean);
  const auto arith = make(at::FaceConductanceScheme::ArithmeticMean);
  // Exact through-flux: dT / (L1/k1 + L2/k2) per area.
  const double q_exact = 100.0 / (0.5 / 100.0 + 0.5 / 1.0) * 0.01;
  EXPECT_NEAR(harm.energy_residual, 0.0, 1e-6);
  (void)q_exact;
  // The two schemes must disagree measurably on the mid temperature.
  const double t_h = harm.temperatures[10];
  const double t_a = arith.temperatures[10];
  EXPECT_GT(std::fabs(t_h - t_a), 0.5);
}

TEST(FvModel, NonFiniteSourcesAndBoundaryFieldsAreRefused) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  at::FvModel m(at::FvGrid::uniform(0.1, 0.02, 0.01, 4, 2, 2));
  EXPECT_THROW(m.add_power(m.all_cells(), nan), std::invalid_argument);
  EXPECT_THROW(m.add_power(m.all_cells(), -inf), std::invalid_argument);

  const auto error_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  at::BoundaryCondition film = at::BoundaryCondition::convection(10.0, 300.0);
  film.h = inf;
  EXPECT_NE(error_of([&] { m.set_boundary(at::Face::XMin, film); }).find("boundary h"),
            std::string::npos);
  at::BoundaryCondition sink = at::BoundaryCondition::fixed(nan);
  EXPECT_NE(error_of([&] { m.set_boundary_patch(at::Face::ZMax, {0, 2, 0, 1, 0, 1}, sink); })
                .find("boundary temperature"),
            std::string::npos);
  at::BoundaryCondition natural =
      at::BoundaryCondition::natural(at::SurfaceOrientation::Vertical, 0.1, 300.0, nan);
  EXPECT_NE(error_of([&] { m.set_boundary(at::Face::YMin, natural); }).find("boundary pressure"),
            std::string::npos);

  // Nothing refused was stored, and 0 K stays legal at this layer: the
  // compact-model builder applies 0 K superposition sinks.
  m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(0.0));
  m.add_power(m.all_cells(), 1.0);
  EXPECT_NO_THROW(m.solve_steady());
}
