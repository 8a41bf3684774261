// The modal path against the dense generalized solve: the shift-invert
// subspace iteration must reproduce the dense spectrum on both a textbook
// simply-supported plate and the Fig. 2 power-supply board and be
// bit-identical across thread counts, and small frames and brackets take
// the exact identity-block pass, bit for bit the dense solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "fem/beam3d.hpp"
#include "fem/frame.hpp"
#include "fem/modal.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/eigen.hpp"
#include "numeric/parallel.hpp"
#include "obs/registry.hpp"

namespace af = aeropack::fem;
namespace am = aeropack::materials;
namespace an = aeropack::numeric;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

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
  af::ModalOptions opts;
  opts.n_modes = n_modes;
  const auto sparse = plate.solve_modal(opts);
  ASSERT_EQ(sparse.frequencies_hz.size(), n_modes);

  an::CsrMatrix k, m;
  plate.reduced_sparse(k, m);
  const std::size_t nr = k.rows();
  const an::EigenResult dense = an::eigen_generalized(k.to_dense(), m.to_dense());
  const an::Vector dense_hz = an::natural_frequencies_hz(dense);
  // Dense participation factors for out-of-plane base excitation: r = 1 on
  // every free w DOF, as PlateModel::solve_modal forms them.
  an::Vector r(nr, 0.0);
  for (std::size_t i = 0; i < nr; ++i)
    if (sparse.free_to_full[i] % 3 == 0) r[i] = 1.0;
  const an::Vector mr = m.multiply(r);
  an::Vector dense_pf(n_modes, 0.0);
  for (std::size_t j = 0; j < n_modes; ++j)
    for (std::size_t i = 0; i < nr; ++i) dense_pf[j] += dense.eigenvectors(i, j) * mr[i];
  // Antisymmetric modes have participation factors that are pure numerical
  // noise; compare against the largest factor, not mode-by-mode magnitude.
  double pf_scale = 0.0;
  for (std::size_t j = 0; j < n_modes; ++j) pf_scale = std::max(pf_scale, std::fabs(dense_pf[j]));
  for (std::size_t j = 0; j < n_modes; ++j) {
    EXPECT_NEAR(sparse.frequencies_hz[j], dense_hz[j], freq_rtol * dense_hz[j]) << "mode " << j;
    // Shapes agree up to sign: both are M-orthonormal, so |phi_s . M phi_d| = 1.
    an::Vector pd(nr);
    for (std::size_t i = 0; i < nr; ++i) pd[i] = dense.eigenvectors(i, j);
    const an::Vector mpd = m.multiply(pd);
    double overlap = 0.0;
    for (std::size_t i = 0; i < nr; ++i) overlap += sparse.shapes(i, j) * mpd[i];
    EXPECT_NEAR(std::fabs(overlap), 1.0, 1e-6) << "mode " << j;
    EXPECT_NEAR(std::fabs(sparse.participation_factors[j]), std::fabs(dense_pf[j]),
                1e-5 * pf_scale)
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
  const auto modes = plate.solve_modal(opts);
  const double analytic = af::ss_plate_frequency(0.30, 0.20, 2e-3, am::fr4(), 1, 1);
  EXPECT_NEAR(modes.frequencies_hz[0], analytic, 0.05 * analytic);
}

TEST(ModalSparse, BitIdenticalAcrossThreadCounts) {
  const auto plate = ps_board(1.6e-3, 2.0);
  af::ModalOptions opts;
  opts.n_modes = 5;

  const auto baseline = plate.solve_modal(opts);  // serial: nothing bound
  for (const std::size_t threads : {2u, 8u}) {
    ExecutionContext ctx(ExecutionConfig{threads, false});
    const ExecutionContext::Use bind(ctx);
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

/// Every input here has a subspace width q with 5q > n (q >= 10 against at
/// most 36 DOFs), so the solve is the exact identity-block pass: no
/// factorization, and the leading pairs of the dense generalized solve bit
/// for bit.
template <typename Model>
void expect_sparse_matches_dense(const std::string& name, const Model& model) {
  an::CsrMatrix k, m;
  model.reduced_sparse(k, m);
  const an::EigenResult dense = an::eigen_generalized(k.to_dense(), m.to_dense());
  af::ModalOptions two_modes;
  two_modes.n_modes = 2;
  for (const af::ModalOptions& opts : {af::ModalOptions{}, two_modes}) {
    ExecutionConfig cfg;
    cfg.threads = 1;
    cfg.telemetry = true;
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    af::ReducedModes sparse;
    ASSERT_NO_THROW(sparse = af::solve_reduced_modes(k, m, opts)) << name;
    const std::size_t want = std::min<std::size_t>(opts.n_modes == 0 ? 16 : 2, k.rows());
    ASSERT_EQ(sparse.eigenvalues.size(), want) << name;
    ASSERT_EQ(sparse.shapes.rows(), k.rows()) << name;
    ASSERT_EQ(sparse.shapes.cols(), want) << name;
    const auto counters = ctx.metrics().counters();
    EXPECT_EQ(counters.at("numeric.eigen.sparse_solves"), 1u) << name;
    const auto factorizations = counters.find("numeric.skyline.factorizations");
    EXPECT_TRUE(factorizations == counters.end() || factorizations->second == 0u) << name;
    for (std::size_t j = 0; j < want; ++j) {
      EXPECT_EQ(sparse.eigenvalues[j], dense.eigenvalues[j]) << name << " mode " << j;
      for (std::size_t i = 0; i < k.rows(); ++i)
        ASSERT_EQ(sparse.shapes(i, j), dense.eigenvectors(i, j))
            << name << " mode " << j << " dof " << i;
    }
  }
}

}  // namespace

TEST(ModalSparse, SmallFramesAndBracketsForcedSparseMatchDense) {
  // The 16 default modes need a subspace wider than half the DOF count on
  // every model here, which used to leave Y^T M Y singular ("Rayleigh-Ritz
  // mass projection lost rank"). The modal path runs its exact
  // identity-block pass instead, for the default and for two modes.
  expect_sparse_matches_dense("frame_cantilever_8", frame_cantilever(8));
  expect_sparse_matches_dense("frame_two_mass_chain", frame_two_mass_chain());
  expect_sparse_matches_dense("frame3d_cantilever_6", frame3d_cantilever());
  expect_sparse_matches_dense("bracket3d", bracket3d());
}
