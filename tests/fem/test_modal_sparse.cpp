// Dense-vs-sparse modal equivalence on the plate stack: the shift-invert
// subspace iteration must reproduce the dense Jacobi spectrum on both a
// textbook simply-supported plate and the Fig. 2 power-supply board, and be
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "fem/beam3d.hpp"
#include "fem/frame.hpp"
#include "fem/modal.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/parallel.hpp"

namespace af = aeropack::fem;
namespace am = aeropack::materials;
namespace an = aeropack::numeric;

namespace {

af::PlateModel ss_plate() {
  af::PlateModel p(0.30, 0.20, 2e-3, am::fr4(), 10, 8);
  p.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  return p;
}

/// Fig. 2 power-supply board (same physics as the golden regression model).
af::PlateModel ps_board(double thickness, double doubler_factor) {
  af::PlateModel p(0.16, 0.10, thickness, am::fr4(), 8, 5);
  p.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  p.add_smeared_mass(2.5);
  p.add_point_mass(0.05, 0.05, 0.18);
  p.add_point_mass(0.11, 0.05, 0.09);
  if (doubler_factor > 1.0) p.add_doubler(0.03, 0.13, 0.02, 0.08, doubler_factor);
  return p;
}

void expect_paths_agree(const af::PlateModel& plate, std::size_t n_modes, double freq_rtol) {
  af::ModalOptions dense_opts, sparse_opts;
  dense_opts.n_modes = n_modes;
  dense_opts.path = af::ModalPath::Dense;
  sparse_opts.n_modes = n_modes;
  sparse_opts.path = af::ModalPath::Sparse;
  const auto dense = plate.solve_modal(dense_opts);
  const auto sparse = plate.solve_modal(sparse_opts);
  ASSERT_EQ(dense.frequencies_hz.size(), n_modes);
  ASSERT_EQ(sparse.frequencies_hz.size(), n_modes);

  an::CsrMatrix k, m;
  plate.reduced_sparse(k, m);
  const std::size_t nr = k.rows();
  // Antisymmetric modes have participation factors that are pure numerical
  // noise; compare against the largest factor, not mode-by-mode magnitude.
  double pf_scale = 0.0;
  for (std::size_t j = 0; j < n_modes; ++j)
    pf_scale = std::max(pf_scale, std::fabs(dense.participation_factors[j]));
  for (std::size_t j = 0; j < n_modes; ++j) {
    EXPECT_NEAR(sparse.frequencies_hz[j], dense.frequencies_hz[j],
                freq_rtol * dense.frequencies_hz[j])
        << "mode " << j;
    // Shapes agree up to sign: both are M-orthonormal, so |phi_s . M phi_d| = 1.
    an::Vector pd(nr);
    for (std::size_t i = 0; i < nr; ++i) pd[i] = dense.shapes(i, j);
    const an::Vector mpd = m.multiply(pd);
    double overlap = 0.0;
    for (std::size_t i = 0; i < nr; ++i) overlap += sparse.shapes(i, j) * mpd[i];
    EXPECT_NEAR(std::fabs(overlap), 1.0, 1e-6) << "mode " << j;
    EXPECT_NEAR(std::fabs(sparse.participation_factors[j]),
                std::fabs(dense.participation_factors[j]), 1e-5 * pf_scale)
        << "mode " << j;
  }
}

}  // namespace

TEST(ModalSparse, SimplySupportedPlateDenseVsSparse) {
  expect_paths_agree(ss_plate(), 6, 1e-7);
}

TEST(ModalSparse, Fig2BoardDenseVsSparse) {
  expect_paths_agree(ps_board(1.6e-3, 1.0), 6, 1e-7);
  expect_paths_agree(ps_board(2.4e-3, 2.0), 6, 1e-7);
}

TEST(ModalSparse, SparseFundamentalTracksAnalyticSolution) {
  const auto plate = ss_plate();
  af::ModalOptions opts;
  opts.n_modes = 3;
  opts.path = af::ModalPath::Sparse;
  const auto modes = plate.solve_modal(opts);
  const double analytic = af::ss_plate_frequency(0.30, 0.20, 2e-3, am::fr4(), 1, 1);
  EXPECT_NEAR(modes.frequencies_hz[0], analytic, 0.05 * analytic);
}

TEST(ModalSparse, BitIdenticalAcrossThreadCounts) {
  const std::size_t original = an::thread_count();
  const auto plate = ps_board(1.6e-3, 2.0);
  af::ModalOptions opts;
  opts.n_modes = 5;
  opts.path = af::ModalPath::Sparse;

  an::set_thread_count(1);
  const auto baseline = plate.solve_modal(opts);
  for (const std::size_t threads : {2u, 8u}) {
    an::set_thread_count(threads);
    const auto run = plate.solve_modal(opts);
    ASSERT_EQ(run.frequencies_hz.size(), baseline.frequencies_hz.size());
    for (std::size_t j = 0; j < baseline.frequencies_hz.size(); ++j) {
      EXPECT_EQ(run.frequencies_hz[j], baseline.frequencies_hz[j])
          << "threads=" << threads << " mode=" << j;
      EXPECT_EQ(run.participation_factors[j], baseline.participation_factors[j])
          << "threads=" << threads << " mode=" << j;
    }
    for (std::size_t j = 0; j < baseline.frequencies_hz.size(); ++j)
      for (std::size_t i = 0; i < baseline.free_to_full.size(); ++i)
        ASSERT_EQ(run.shapes(i, j), baseline.shapes(i, j))
            << "threads=" << threads << " mode=" << j << " dof=" << i;
  }
  an::set_thread_count(original);
}

namespace {

af::FrameModel frame_cantilever(std::size_t elements) {
  af::FrameModel f;
  const auto mat = am::aluminum_6061();
  const auto s = af::BeamSection::rectangle(0.02, 0.004);
  std::size_t prev = f.add_node(0.0, 0.0);
  f.fix_all(prev);
  for (std::size_t i = 1; i <= elements; ++i) {
    const std::size_t node = f.add_node(0.4 * static_cast<double>(i) / elements, 0.0);
    f.add_beam(prev, node, mat, s);
    prev = node;
  }
  return f;
}

af::FrameModel frame_two_mass_chain() {
  af::FrameModel f;
  const std::size_t a = f.add_node(0.0, 0.0);
  const std::size_t b = f.add_node(0.0, 1.0);
  for (const std::size_t n : {a, b}) {
    f.fix(n, af::Dof::Ux);
    f.fix(n, af::Dof::Rz);
  }
  f.add_ground_spring(a, af::Dof::Uy, 1000.0);
  f.add_spring(a, b, af::Dof::Uy, 1000.0);
  f.add_mass(a, 1.0);
  f.add_mass(b, 1.0);
  return f;
}

af::Frame3D frame3d_cantilever() {
  af::Frame3D f;
  const auto s = af::Section3D::rectangle(0.015, 0.003);
  std::size_t prev = f.add_node(0, 0, 0);
  f.fix_all(prev);
  for (std::size_t i = 1; i <= 6; ++i) {
    const std::size_t node = f.add_node(0.05 * static_cast<double>(i), 0, 0);
    f.add_beam(prev, node, am::aluminum_6061(), s);
    prev = node;
  }
  return f;
}

/// The 3-D L-bracket carrying a 6 kg unit at its tip.
af::Frame3D bracket3d() {
  af::Frame3D f;
  const auto s = af::Section3D::rectangle(0.02, 0.03);
  const auto base = f.add_node(0, 0, 0);
  const auto knee = f.add_node(0, 0, 0.12);
  const auto tip = f.add_node(0.10, 0, 0.12);
  f.fix_all(base);
  f.add_beam(base, knee, am::aluminum_7075(), s);
  f.add_beam(knee, tip, am::aluminum_7075(), s);
  f.add_mass(tip, 6.0);
  return f;
}

template <typename Model>
void expect_sparse_matches_dense(const std::string& name, const Model& model) {
  an::CsrMatrix k, m;
  model.reduced_sparse(k, m);
  af::ModalOptions dense_opts, sparse_opts;
  dense_opts.path = af::ModalPath::Dense;
  sparse_opts.path = af::ModalPath::Sparse;  // n_modes = 0 asks for 16
  const af::ReducedModes dense = af::solve_reduced_modes(k, m, dense_opts);
  af::ReducedModes sparse;
  ASSERT_NO_THROW(sparse = af::solve_reduced_modes(k, m, sparse_opts)) << name;
  ASSERT_EQ(sparse.frequencies_hz.size(), std::min<std::size_t>(16, k.rows())) << name;
  EXPECT_TRUE(sparse.used_sparse) << name;
  for (std::size_t j = 0; j < sparse.frequencies_hz.size(); ++j)
    EXPECT_NEAR(sparse.frequencies_hz[j], dense.frequencies_hz[j],
                1e-10 * dense.frequencies_hz[j])
        << name << " mode " << j;
}

}  // namespace

TEST(ModalSparse, SmallFramesAndBracketsForcedSparseMatchDense) {
  // The 16 default modes need a subspace wider than half the DOF count on
  // every model here, which used to leave Y^T M Y singular ("Rayleigh-Ritz
  // mass projection lost rank"). The sparse path now runs its exact
  // identity-block pass instead.
  expect_sparse_matches_dense("frame_cantilever_8", frame_cantilever(8));
  expect_sparse_matches_dense("frame_two_mass_chain", frame_two_mass_chain());
  expect_sparse_matches_dense("frame3d_cantilever_6", frame3d_cantilever());
  expect_sparse_matches_dense("bracket3d", bracket3d());
}
