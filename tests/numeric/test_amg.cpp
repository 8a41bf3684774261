// Aggregation-multigrid preconditioned CG (numeric/amg.hpp): the hierarchy's
// shape, the per-solve refresh contract, convergence at the default 1e-10
// tolerance, energy conservation, and bit-identity of AMG solves across
// 1/2/8 threads (forced fan-out) and between cold and cached FV assemblies
// on the four solver stress cases (verify/solver_cases.hpp) and on a
// nonlinear Picard solve that reuses one workspace across passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "numeric/amg.hpp"
#include "numeric/grain.hpp"
#include "numeric/parallel.hpp"
#include "obs/registry.hpp"
#include "thermal/fv.hpp"
#include "verify/cross_check.hpp"
#include "verify/solver_cases.hpp"

namespace an = aeropack::numeric;
namespace at = aeropack::thermal;
namespace av = aeropack::verify;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

/// 7-point Laplacian on an n^3 grid plus `shift` on the diagonal (SPD).
an::CsrMatrix laplacian(std::size_t n, double shift) {
  an::SparseBuilder b(n * n * n, n * n * n);
  const auto idx = [n](std::size_t i, std::size_t j, std::size_t k) {
    return i + n * (j + n * k);
  };
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = idx(i, j, k);
        double diag = shift;
        const auto nb = [&](std::size_t q) {
          b.add(c, q, -1.0);
          diag += 1.0;
        };
        if (i > 0) nb(idx(i - 1, j, k));
        if (i + 1 < n) nb(idx(i + 1, j, k));
        if (j > 0) nb(idx(i, j - 1, k));
        if (j + 1 < n) nb(idx(i, j + 1, k));
        if (k > 0) nb(idx(i, j, k - 1));
        if (k + 1 < n) nb(idx(i, j, k + 1));
        b.add(c, c, diag);
      }
  return b.build();
}

double true_residual(const an::CsrMatrix& a, const an::Vector& b, const an::Vector& x) {
  const an::Vector ax = a.multiply(x);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

at::FvSolution solve_on(std::size_t threads, const at::FvModel& model,
                        const std::shared_ptr<const at::FvAssembly>& assembly) {
  ExecutionConfig cfg;
  cfg.threads = threads;
  ExecutionContext ctx(cfg);
  const ExecutionContext::Use use(ctx);
  return model.solve_steady(assembly);
}

void expect_bit_identical(const an::Vector& got, const an::Vector& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << label << ", cell " << i;
}

}  // namespace

TEST(AmgHierarchy, CoarsensByAboutEightPerLevelDownToTheCoarsestBound) {
  const an::AmgHierarchy h(laplacian(24, 1e-3));
  ASSERT_GE(h.levels(), 3u);
  EXPECT_EQ(h.rows(0), 24u * 24u * 24u);
  for (std::size_t l = 1; l < h.levels(); ++l) {
    EXPECT_LT(h.rows(l) * 4, h.rows(l - 1)) << "level " << l;
    EXPECT_GT(h.rows(l) * 16, h.rows(l - 1)) << "level " << l;
  }
  EXPECT_LE(h.rows(h.levels() - 1), an::kAmgCoarsestRows);
  EXPECT_GT(h.rows(h.levels() - 2), an::kAmgCoarsestRows);
  EXPECT_GT(h.cost_bytes(), 0u);
  EXPECT_THROW((void)h.rows(h.levels()), std::out_of_range);
}

TEST(AmgHierarchy, SmallMatrixIsItsOwnCoarsestLevel) {
  const an::CsrMatrix a = laplacian(4, 0.5);
  const an::AmgHierarchy h(a);
  EXPECT_EQ(h.levels(), 1u);
  an::AmgWorkspace ws(h);
  const an::Vector b(a.rows(), 1.0);
  const auto res = an::conjugate_gradient(a, b, {}, nullptr, &ws);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 2u);  // the "preconditioner" is the exact solve
  EXPECT_LT(true_residual(a, b, res.x), 1e-10);
}

TEST(AmgHierarchy, RejectsMatricesItCannotCoarsen) {
  an::SparseBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(0, 1, -1.0);
  b.add(1, 0, -1.0);
  b.add(2, 2, 1.0);  // row 1 has no diagonal entry
  EXPECT_THROW(an::AmgHierarchy h(b.build()), std::invalid_argument);
}

TEST(AmgWorkspace, RefreshRefusesAForeignMatrixAndANonPositiveDiagonal) {
  const an::AmgHierarchy h(laplacian(12, 1e-3));
  an::AmgWorkspace ws(h);
  EXPECT_THROW(ws.refresh(laplacian(10, 1e-3)), std::invalid_argument);
  an::CsrMatrix bad = laplacian(12, 1e-3);
  bad.values()[0] = -1.0;  // row 0's diagonal (its first stored column)
  EXPECT_THROW(ws.refresh(bad), std::domain_error);
  const an::Vector r(h.rows(0), 1.0);
  an::Vector x(h.rows(0), 0.0), z;
  EXPECT_THROW(ws.apply(bad, r, x, z), std::logic_error);  // never refreshed
  ws.refresh(laplacian(12, 1e-3));
  EXPECT_THROW(ws.apply(bad, r, x, x), std::invalid_argument);  // z aliases x
}

TEST(AmgWorkspace, ReusedWorkspaceSolvesExactlyAsAFreshOne) {
  // A Picard pass rewrites only the diagonal and solves again on the same
  // workspace: refresh() must re-derive every coarse diagonal and the
  // coarsest factor, leaving nothing of the previous operator behind.
  const an::CsrMatrix a = laplacian(24, 1e-3);
  an::CsrMatrix b = a;
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t k = b.row_ptr()[i]; k < b.row_ptr()[i + 1]; ++k)
      if (b.col_idx()[k] == i) b.values()[k] += 0.05 * static_cast<double>(1 + i % 11);
  const an::Vector rhs(a.rows(), 1.0);
  const an::AmgHierarchy h(a);
  an::AmgWorkspace reused(h);
  ASSERT_TRUE(an::conjugate_gradient(a, rhs, {}, nullptr, &reused).converged);
  const auto again = an::conjugate_gradient(b, rhs, {}, nullptr, &reused);
  an::AmgWorkspace fresh(h);
  const auto once = an::conjugate_gradient(b, rhs, {}, nullptr, &fresh);
  ASSERT_TRUE(once.converged);
  EXPECT_EQ(again.iterations, once.iterations);
  expect_bit_identical(again.x, once.x, "reused workspace");
}

TEST(AmgCg, ConvergesToJacobisSolutionInFarFewerIterations) {
  const an::CsrMatrix a = laplacian(24, 1e-3);
  const an::Vector b(a.rows(), 1.0);
  const auto jacobi = an::conjugate_gradient(a, b);
  const an::AmgHierarchy h(a);
  an::AmgWorkspace ws(h);
  const auto amg = an::conjugate_gradient(a, b, {}, nullptr, &ws);
  ASSERT_TRUE(jacobi.converged);
  ASSERT_TRUE(amg.converged);
  EXPECT_LT(amg.residual, 1e-10);
  EXPECT_LT(true_residual(a, b, amg.x), 1e-10);
  EXPECT_LT(amg.iterations * 4, jacobi.iterations);
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    worst = std::max(worst, std::fabs(amg.x[i] - jacobi.x[i]));
    scale = std::max(scale, std::fabs(jacobi.x[i]));
  }
  EXPECT_LT(worst, 1e-6 * scale);
}

TEST(AmgCg, CountsInnerCyclesApartFromCgIterations) {
  ExecutionConfig cfg;
  cfg.threads = 1;
  cfg.telemetry = true;
  ExecutionContext ctx(cfg);
  const ExecutionContext::Use use(ctx);
  const an::CsrMatrix a = laplacian(24, 1e-3);
  const an::Vector b(a.rows(), 1.0);
  const an::AmgHierarchy h(a);
  an::AmgWorkspace ws(h);
  const auto res = an::conjugate_gradient(a, b, {}, nullptr, &ws);
  const auto counters = aeropack::obs::current().counters();
  EXPECT_EQ(counters.at("numeric.amg.setups"), 1u);
  EXPECT_EQ(counters.at("numeric.cg.iterations"), res.iterations);
  EXPECT_EQ(counters.at("numeric.amg.cycles"), ws.cycles());
  // One fine cycle per preconditioner application (the initial one plus
  // one per non-final iteration), and two inner K-cycle steps per coarse
  // level visit on top.
  EXPECT_GT(ws.cycles(), 2 * res.iterations);
}

TEST(AmgCg, FinishesEnergyConserving) {
  // sum(b - A x) is the energy imbalance of an FV system; the constant-mode
  // correction drives it to rounding level on every stress case.
  for (const auto& c : av::amg_cases()) {
    const at::LinearSteadySystem sys = c.model.linearize_steady();
    const an::AmgHierarchy h(sys.matrix);
    an::AmgWorkspace ws(h);
    const auto res = an::conjugate_gradient(sys.matrix, sys.rhs, {}, nullptr, &ws);
    ASSERT_TRUE(res.converged) << c.name;
    EXPECT_LT(res.residual, 1e-10) << c.name;
    EXPECT_LT(true_residual(sys.matrix, sys.rhs, res.x), 1e-10) << c.name;
    const an::Vector ax = sys.matrix.multiply(res.x);
    double imbalance = 0.0, load = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      imbalance += sys.rhs[i] - ax[i];
      load += std::fabs(sys.rhs[i]);
    }
    EXPECT_LT(std::fabs(imbalance), 1e-12 * load) << c.name;
  }
}

TEST(AmgFv, AssembliesCarryAHierarchyExactlyFromTheCrossover) {
  const auto chain = [](std::size_t cells) {
    at::FvModel m(at::FvGrid::uniform(1.0, 0.01, 0.01, cells, 1, 1));
    m.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
    return m.build_assembly();
  };
  EXPECT_NE(chain(at::kAmgMinCells)->amg, nullptr);
  EXPECT_EQ(chain(at::kAmgMinCells - 1)->amg, nullptr);
}

TEST(AmgFv, StressCasesAreBitIdenticalAcrossThreadsAndColdVsCached) {
  for (const auto& c : av::amg_cases()) {
    // Cold: solve_steady assembles (and coarsens) internally.
    at::FvSolution cold;
    {
      ExecutionConfig cfg;
      cfg.threads = 1;
      ExecutionContext ctx(cfg);
      const ExecutionContext::Use use(ctx);
      cold = c.model.solve_steady();
    }
    ASSERT_TRUE(cold.converged) << c.name;
    const auto assembly = c.model.build_assembly();
    ASSERT_NE(assembly->amg, nullptr) << c.name;
    an::grain::ScopedForceFanOut force;
    for (const std::size_t t : {1u, 2u, 8u}) {
      const at::FvSolution cached = solve_on(t, c.model, assembly);
      EXPECT_EQ(cached.linear_iterations, cold.linear_iterations) << c.name << " t=" << t;
      expect_bit_identical(cached.temperatures, cold.temperatures,
                           c.name + " cached at " + std::to_string(t) + " threads");
    }
  }
}

TEST(AmgFv, NonlinearPicardSolveIsBitIdenticalAndMatchesJacobi) {
  // Radiating and natural-convection films move the fine diagonal on every
  // Picard pass, so one AmgWorkspace is refreshed pass after pass.
  constexpr std::size_t n = 36;  // n x n x n/2 cells
  static_assert(n * n * (n / 2) >= at::kAmgMinCells);
  const at::FvModel model = av::nonlinear_box_model(n);
  at::FvSolution cold;
  {
    ExecutionConfig cfg;
    cfg.threads = 1;
    ExecutionContext ctx(cfg);
    const ExecutionContext::Use use(ctx);
    cold = model.solve_steady();
  }
  ASSERT_TRUE(cold.converged);
  ASSERT_GT(cold.picard_iterations, 1u);
  const auto assembly = model.build_assembly();
  ASSERT_NE(assembly->amg, nullptr);
  {
    an::grain::ScopedForceFanOut force;
    for (const std::size_t t : {1u, 2u, 8u}) {
      const at::FvSolution cached = solve_on(t, model, assembly);
      EXPECT_EQ(cached.picard_iterations, cold.picard_iterations) << "t=" << t;
      EXPECT_EQ(cached.linear_iterations, cold.linear_iterations) << "t=" << t;
      expect_bit_identical(cached.temperatures, cold.temperatures,
                           "cached at " + std::to_string(t) + " threads");
    }
  }
  // The same assembly without its hierarchy runs Jacobi-CG on every pass.
  auto bare = std::make_shared<at::FvAssembly>(*assembly);
  bare->amg = nullptr;
  const at::FvSolution jacobi = solve_on(1, model, bare);
  ASSERT_TRUE(jacobi.converged);
  EXPECT_LT(cold.linear_iterations * 4, jacobi.linear_iterations);
  double worst = 0.0;
  for (std::size_t i = 0; i < jacobi.temperatures.size(); ++i)
    worst = std::max(worst, std::fabs(cold.temperatures[i] - jacobi.temperatures[i]));
  EXPECT_LT(worst, 1e-5);
}
