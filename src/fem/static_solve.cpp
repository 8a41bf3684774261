#include "fem/static_solve.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "numeric/sparse_cholesky.hpp"

namespace aeropack::fem {

numeric::Vector solve_reduced_static(const numeric::CsrMatrix& k, const numeric::Vector& f,
                                     const char* who) {
  try {
    return numeric::SkylineCholesky(k).solve(f);
  } catch (const std::length_error&) {
    numeric::IterativeOptions io;
    io.tolerance = 1e-12;
    io.max_iterations = std::max<std::size_t>(10000, 20 * f.size());
    numeric::IterativeResult res = numeric::conjugate_gradient(k, f, io);
    if (!res.converged) throw std::runtime_error(std::string(who) + ": CG did not converge");
    return std::move(res.x);
  }
}

}  // namespace aeropack::fem
