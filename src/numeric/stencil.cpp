#include "numeric/stencil.hpp"

#include <cassert>
#include <stdexcept>

#include "numeric/parallel.hpp"
#include "obs/registry.hpp"

namespace aeropack::numeric {

StencilMatrix::StencilMatrix(std::size_t nx, std::size_t ny, std::size_t nz, Vector cx,
                             Vector cy, Vector cz, Vector diagonal)
    : diag_(std::move(diagonal)) {
  if (nx == 0 || ny == 0 || nz == 0)
    throw std::invalid_argument("StencilMatrix: zero grid dimension");
  const std::size_t n = nx * ny * nz;
  if (cx.size() != n || cy.size() != n || cz.size() != n || diag_.size() != n)
    throw std::invalid_argument("StencilMatrix: plane size does not match the grid");
  // Only the last cell of each x-line, the last line of each xy-plane and
  // the last plane face the outside of the grid.
  bool outside = false;
  for (std::size_t line = 0; line < ny * nz; ++line) outside |= cx[line * nx + nx - 1] != 0.0;
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t i = 0; i < nx; ++i) outside |= cy[(k * ny + ny - 1) * nx + i] != 0.0;
  for (std::size_t c = (nz - 1) * nx * ny; c < n; ++c) outside |= cz[c] != 0.0;
  if (outside)
    throw std::invalid_argument("StencilMatrix: coupling to a neighbour outside the grid");
  c_ = std::make_shared<const Couplings>(
      Couplings{nx, ny, nz, std::move(cx), std::move(cy), std::move(cz), Vector(nx, 0.0)});
}

std::size_t StencilMatrix::nonzeros() const {
  const std::size_t nx = c_->nx, ny = c_->ny, nz = c_->nz;
  if (rows() == 0) return 0;
  const std::size_t faces = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1);
  return rows() + 2 * faces;
}

std::size_t StencilMatrix::cost_bytes() const {
  return sizeof(StencilMatrix) + sizeof(Couplings) +
         (c_->x.size() + c_->y.size() + c_->z.size() + c_->zeros.size() + diag_.size()) *
             sizeof(double);
}

Vector StencilMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply(x, y);
  return y;
}

void StencilMatrix::multiply(const Vector& x, Vector& y) const {
  if (x.size() != cols()) throw std::invalid_argument("StencilMatrix::multiply: size mismatch");
  assert(&x != &y && "StencilMatrix::multiply: y must not alias x");
  static thread_local obs::CounterHandle spmv_calls{"numeric.spmv.calls"};
  spmv_calls.add();
  y.resize(rows());
  parallel_for(0, rows(),
               [&](std::size_t lo, std::size_t hi) {
                 for_each_row(lo, hi, x, [&](std::size_t c, double ax) { y[c] = ax; });
               },
               grain::Work::elements(nonzeros(), grain::Cost::kSpmv));
}

double StencilMatrix::multiply_dot(const Vector& x, Vector& y) const {
  if (x.size() != cols())
    throw std::invalid_argument("StencilMatrix::multiply_dot: size mismatch");
  assert(&x != &y && "StencilMatrix::multiply_dot: y must not alias x");
  static thread_local obs::CounterHandle spmv_calls{"numeric.spmv.calls"};
  spmv_calls.add();
  y.resize(rows());
  // Each chunk's rows are written, then dotted while still in cache: the
  // partial is parallel_dot's, term for term.
  return parallel_chunked_sum(
      rows(), grain::Work::elements(nonzeros() + rows(), grain::Cost::kSpmv),
      [&](std::size_t lo, std::size_t hi) {
        for_each_row(lo, hi, x, [&](std::size_t c, double ax) { y[c] = ax; });
        double s = 0.0;
        for (std::size_t c = lo; c < hi; ++c) s += x[c] * y[c];
        return s;
      });
}

CsrMatrix StencilMatrix::to_csr() const {
  const Couplings& s = *c_;
  const std::size_t n = rows(), nx = s.nx, ny = s.ny, nz = s.nz, sxy = nx * ny;
  std::vector<std::size_t> row_ptr(n + 1, 0), col_idx(nonzeros());
  std::vector<double> values(nonzeros());
  std::size_t c = 0, w = 0;
  const auto put = [&](std::size_t col, double v) {
    col_idx[w] = col;
    values[w++] = v;
  };
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i, ++c) {
        if (k > 0) put(c - sxy, s.z[c - sxy]);
        if (j > 0) put(c - nx, s.y[c - nx]);
        if (i > 0) put(c - 1, s.x[c - 1]);
        put(c, diag_[c]);
        if (i + 1 < nx) put(c + 1, s.x[c]);
        if (j + 1 < ny) put(c + nx, s.y[c]);
        if (k + 1 < nz) put(c + sxy, s.z[c]);
        row_ptr[c + 1] = w;
      }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

}  // namespace aeropack::numeric
