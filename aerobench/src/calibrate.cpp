#include "calibrate.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

namespace aerobench {

namespace {

using Clock = std::chrono::steady_clock;

// Jacobi-preconditioned CG, 40 iterations from zero, on a CSR 7-point
// operator: the indirect loads, dot products and vector updates of the
// program's FV solves, in code of the benchmark's own.
constexpr std::size_t kIterations = 40;

struct Grid {
  std::size_t nx, ny, nz;
};

/// Per thread; four threads hold about 15 MB, as the 48^3 solves do.
constexpr Grid kGrid{48, 48, 12};

struct Csr {
  std::vector<std::size_t> row, col;
  std::vector<double> val, diag;
};

Csr seven_point(Grid g) {
  Csr a;
  a.row.push_back(0);
  for (std::size_t z = 0; z < g.nz; ++z)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t x = 0; x < g.nx; ++x) {
        const std::size_t i = (z * g.ny + y) * g.nx + x;
        double d = 1e-3;  // a weak sink keeps the operator definite
        const auto link = [&](bool inside, std::size_t j) {
          if (!inside) return;
          a.col.push_back(j);
          a.val.push_back(-1.0);
          d += 1.0;
        };
        link(z > 0, i - g.nx * g.ny);
        link(y > 0, i - g.nx);
        link(x > 0, i - 1);
        a.col.push_back(i);
        a.val.push_back(0.0);
        const std::size_t self = a.val.size() - 1;
        link(x + 1 < g.nx, i + 1);
        link(y + 1 < g.ny, i + g.nx);
        link(z + 1 < g.nz, i + g.nx * g.ny);
        a.val[self] = d;
        a.diag.push_back(d);
        a.row.push_back(a.col.size());
      }
  return a;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

struct Cg {
  Csr a;
  std::vector<double> b, x, r, z, p, q;

  explicit Cg(Grid g) : a(seven_point(g)) {
    const std::size_t n = a.diag.size();
    for (auto* v : {&b, &x, &r, &z, &p, &q}) v->assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) b[i] = 1.0 + 1e-2 * static_cast<double>(i % 13);
  }

  /// One fixed-iteration solve from zero; returns the final residual norm.
  double solve() {
    const std::size_t n = b.size();
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 0.0;
      r[i] = b[i];
      z[i] = r[i] / a.diag[i];
      p[i] = z[i];
    }
    double rz = dot(r, z);
    for (std::size_t it = 0; it < kIterations && rz > 0.0; ++it) {
      for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (std::size_t k = a.row[i]; k < a.row[i + 1]; ++k) s += a.val[k] * p[a.col[k]];
        q[i] = s;
      }
      const double alpha = rz / dot(p, q);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * q[i];
        z[i] = r[i] / a.diag[i];
      }
      const double rz_next = dot(r, z);
      const double beta = rz_next / rz;
      rz = rz_next;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    return std::sqrt(dot(r, r));
  }
};

double solves_per_second(double seconds) {
  Cg cg(kGrid);
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  std::size_t solves = 0;
  double residual = 0.0;
  do {
    residual += cg.solve();
    ++solves;
  } while (Clock::now() < until);
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!std::isfinite(residual)) throw std::runtime_error("calibration kernel diverged");
  return static_cast<double>(solves) / elapsed;
}

}  // namespace

double host_speed(std::size_t threads, double seconds) {
  if (threads == 0) threads = 1;
  std::vector<double> rates(threads, 0.0);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&rates, t, seconds] { rates[t] = solves_per_second(seconds); });
  }
  double sum = 0.0;
  for (double r : rates) sum += r;
  return sum / static_cast<double>(threads) / kNominalRate;
}

}  // namespace aerobench
