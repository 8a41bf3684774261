// Dense row-major matrix and vector operations.
//
// This is the linear-algebra foundation shared by the FEM structural solver,
// the finite-volume thermal solver and the two-phase network models. It is
// deliberately small: double precision only, row-major storage, exceptions on
// dimension mismatch.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace aeropack::numeric {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Construct from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// Diagonal matrix from a vector.
  static Matrix diagonal(const Vector& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  bool square() const { return rows_ == cols_ && rows_ > 0; }

  double& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  double operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  /// Checked element access; throws std::out_of_range.
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Frobenius norm.
  double norm() const;
  Matrix transposed() const;
  /// Max |a_ij - a_ji| over all pairs; 0 for an exactly symmetric matrix.
  double asymmetry() const;
  /// Force exact symmetry: A <- (A + A^T)/2. Requires square().
  void symmetrize();

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix lhs, double s);
Matrix operator*(double s, Matrix rhs);
Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& a, const Vector& x);
std::ostream& operator<<(std::ostream& os, const Matrix& m);

// --- Vector helpers -------------------------------------------------------

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(double s, Vector v);

double dot(const Vector& a, const Vector& b);
double norm2(const Vector& v);
double norm_inf(const Vector& v);
/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y);
/// y[0, n) += alpha * x[0, n) on raw rows that must not overlap. The
/// restrict qualifiers let the short row loops of the block kernels
/// (block SpMV and solve, Rayleigh-Ritz projections) vectorize without
/// alias checks. y - a x and y + (-a) x are the same IEEE operation, so
/// callers that subtract pass -a.
inline void axpy_row(double alpha, const double* __restrict x, double* __restrict y,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}
/// Element-wise maximum value.
double max_element(const Vector& v);
/// Element-wise minimum value.
double min_element(const Vector& v);
/// Linearly spaced values from a to b inclusive (n >= 2).
Vector linspace(double a, double b, std::size_t n);

}  // namespace aeropack::numeric
