// Structured 7-point stencil operator (numeric/stencil.hpp): multiply and
// the fused multiply_dot must reproduce to_csr().multiply() and
// parallel_dot bit for bit on every grid shape — the 1-wide axes, the SEB
// box, and a grid whose fixed 2048-row reduction chunks start mid-line — at
// 1/2/8 threads with fan-out forced. Also pins the 7-point nonzero count,
// copy semantics (shared couplings, owned diagonal), the one-SpMV-per-
// application counter contract, and CG on the stencil against CG on its CSR.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "numeric/amg.hpp"
#include "numeric/grain.hpp"
#include "numeric/parallel.hpp"
#include "numeric/stats.hpp"
#include "numeric/stencil.hpp"
#include "obs/registry.hpp"

namespace an = aeropack::numeric;
using aeropack::ExecutionConfig;
using aeropack::ExecutionContext;

namespace {

struct Shape {
  std::size_t nx, ny, nz;
};

std::string name(const Shape& s) {
  return std::to_string(s.nx) + "x" + std::to_string(s.ny) + "x" + std::to_string(s.nz);
}

/// 13 x 11 x 31 = 4433 rows: its reduction chunks start at rows 2048 and
/// 4096, mid-way through x-lines (2048 % 13 = 7, 4096 % 13 = 1).
const std::vector<Shape> kShapes{{1, 1, 1}, {9, 1, 1}, {1, 7, 1},   {1, 1, 5},
                                 {15, 12, 4}, {13, 11, 31}};

/// SPD stencil with random negative couplings (0 on the domain faces) and a
/// diagonal that dominates them.
an::StencilMatrix random_stencil(const Shape& s, unsigned seed) {
  const std::size_t n = s.nx * s.ny * s.nz;
  an::Rng rng(seed);
  an::Vector cx(n, 0.0), cy(n, 0.0), cz(n, 0.0), d(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t i = c % s.nx, j = (c / s.nx) % s.ny, k = c / (s.nx * s.ny);
    if (i + 1 < s.nx) cx[c] = -rng.uniform(0.1, 2.0);
    if (j + 1 < s.ny) cy[c] = -rng.uniform(0.1, 2.0);
    if (k + 1 < s.nz) cz[c] = -rng.uniform(0.1, 2.0);
  }
  for (std::size_t c = 0; c < n; ++c) {
    d[c] = rng.uniform(0.01, 1.0) - cx[c] - cy[c] - cz[c];
    if (c >= 1) d[c] -= cx[c - 1];
    if (c >= s.nx) d[c] -= cy[c - s.nx];
    if (c >= s.nx * s.ny) d[c] -= cz[c - s.nx * s.ny];
  }
  return an::StencilMatrix(s.nx, s.ny, s.nz, cx, cy, cz, d);
}

an::Vector random_vector(std::size_t n, unsigned seed) {
  an::Rng rng(seed);
  an::Vector v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Index of the first entry whose bits differ, or a.size().
std::size_t first_difference(const an::Vector& a, const an::Vector& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return i;
  return a.size();
}

}  // namespace

TEST(Stencil, MultiplyAndMultiplyDotMatchCsrBitForBit) {
  const an::grain::ScopedForceFanOut force;
  for (const Shape& s : kShapes) {
    const an::StencilMatrix a = random_stencil(s, 11);
    const an::CsrMatrix csr = a.to_csr();
    const std::size_t n = a.rows();
    // A random field, then all -0.0: every product of the second is ±0, so
    // any term added in the wrong place would surface as a -0.0 row.
    const std::vector<an::Vector> inputs{random_vector(n, 5), an::Vector(n, -0.0)};
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ExecutionContext ctx(ExecutionConfig{threads, false});
      const ExecutionContext::Use bind(ctx);
      for (const an::Vector& x : inputs) {
        const an::Vector want = csr.multiply(x);
        const double want_dot = an::parallel_dot(x, want);
        const an::Vector got = a.multiply(x);
        EXPECT_EQ(first_difference(got, want), n) << name(s) << " at " << threads;
        an::Vector fused;
        const double got_dot = a.multiply_dot(x, fused);
        EXPECT_EQ(first_difference(fused, want), n) << name(s) << " at " << threads;
        EXPECT_TRUE(same_bits(got_dot, want_dot))
            << name(s) << " at " << threads << ": " << got_dot << " vs " << want_dot;
      }
    }
  }
}

TEST(Stencil, NonzerosIsTheSevenPointCount) {
  for (const Shape& s : kShapes) {
    const an::StencilMatrix a = random_stencil(s, 3);
    const std::size_t faces = (s.nx - 1) * s.ny * s.nz + s.nx * (s.ny - 1) * s.nz +
                              s.nx * s.ny * (s.nz - 1);
    EXPECT_EQ(a.nonzeros(), a.rows() + 2 * faces) << name(s);
    EXPECT_EQ(a.to_csr().nonzeros(), a.nonzeros()) << name(s);
  }
  EXPECT_EQ(random_stencil({1, 1, 1}, 3).nonzeros(), 1u);
  EXPECT_EQ(random_stencil({15, 12, 4}, 3).nonzeros(), 4464u);  // the SEB box
}

TEST(Stencil, CopySharesCouplingsAndOwnsItsDiagonal) {
  const an::StencilMatrix a = random_stencil({15, 12, 4}, 7);
  an::StencilMatrix b = a;
  EXPECT_EQ(&b.coupling_x(), &a.coupling_x());
  EXPECT_EQ(&b.coupling_y(), &a.coupling_y());
  EXPECT_EQ(&b.coupling_z(), &a.coupling_z());
  EXPECT_NE(b.diagonal().data(), a.diagonal().data());
  const double before = a.diagonal()[17];
  b.diagonal()[17] += 1.0;
  EXPECT_EQ(a.diagonal()[17], before);
  EXPECT_EQ(b.to_csr().at(17, 17), before + 1.0);
}

TEST(Stencil, EachApplicationCountsOneSpmvCall) {
  const an::StencilMatrix a = random_stencil({13, 11, 31}, 9);
  const an::Vector x = random_vector(a.rows(), 2);
  const an::grain::ScopedForceFanOut force;
  ExecutionContext ctx(ExecutionConfig{4, true});
  const ExecutionContext::Use bind(ctx);
  an::Vector y;
  a.multiply(x, y);
  (void)a.multiply(x);
  (void)a.multiply_dot(x, y);
  a.for_each_row(0, a.rows(), x, [](std::size_t, double) {});  // a sweep, not an SpMV
  EXPECT_EQ(ctx.metrics().counters().at("numeric.spmv.calls"), 3u);
}

TEST(Stencil, RefusesInconsistentPlanes) {
  const an::Vector four(4, 0.0), three(3, 0.0);
  EXPECT_THROW(an::StencilMatrix(0, 2, 2, {}, {}, {}, {}), std::invalid_argument);
  EXPECT_THROW(an::StencilMatrix(2, 2, 1, four, four, four, three), std::invalid_argument);
  an::Vector cx(4, 0.0);
  cx[1] = -1.0;  // row 1 is i = 1 = nx - 1: it has no +x neighbour
  EXPECT_THROW(an::StencilMatrix(2, 2, 1, cx, four, four, four), std::invalid_argument);
  cx[1] = 0.0;
  cx[0] = -1.0;
  EXPECT_NO_THROW(an::StencilMatrix(2, 2, 1, cx, four, four, four));
}

TEST(Stencil, ConjugateGradientMatchesItsCsrBitForBit) {
  const an::grain::ScopedForceFanOut force;
  const an::StencilMatrix a = random_stencil({15, 12, 4}, 21);
  const an::CsrMatrix csr = a.to_csr();
  const an::Vector b = random_vector(a.rows(), 4);
  const an::Vector x0 = random_vector(a.rows(), 8);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ExecutionContext ctx(ExecutionConfig{threads, false});
    const ExecutionContext::Use bind(ctx);
    for (const an::Vector* warm : {static_cast<const an::Vector*>(nullptr), &x0}) {
      const an::IterativeResult want = an::conjugate_gradient(csr, b, {}, warm);
      const an::IterativeResult got = an::conjugate_gradient(a, b, {}, warm);
      ASSERT_TRUE(got.converged);
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_TRUE(same_bits(got.residual, want.residual));
      EXPECT_EQ(first_difference(got.x, want.x), a.rows()) << threads << " threads";
    }
  }
}

TEST(Stencil, MultigridOnTheStencilMatchesMultigridOnItsCsr) {
  const an::StencilMatrix a = random_stencil({28, 28, 28}, 13);
  const an::CsrMatrix csr = a.to_csr();
  const an::Vector b = random_vector(a.rows(), 6);
  const an::AmgHierarchy from_csr(csr), from_stencil(a);
  ASSERT_GT(from_stencil.levels(), 1u);
  ASSERT_EQ(from_stencil.levels(), from_csr.levels());
  const an::grain::ScopedForceFanOut force;
  ExecutionContext ctx(ExecutionConfig{2, false});
  const ExecutionContext::Use bind(ctx);
  an::AmgWorkspace ws_csr(from_csr), ws_stencil(from_stencil);
  const an::IterativeResult want = an::conjugate_gradient(csr, b, {}, nullptr, &ws_csr);
  const an::IterativeResult got = an::conjugate_gradient(a, b, {}, nullptr, &ws_stencil);
  ASSERT_TRUE(got.converged);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(first_difference(got.x, want.x), a.rows());
  EXPECT_EQ(ws_stencil.cycles(), ws_csr.cycles());
}
