// Dense linear algebra for the MNA solver.
#pragma once

#include <cstddef>
#include <vector>

namespace sttram::spice {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Sets every entry to zero (keeps dimensions).
  void clear();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b in place by LU factorization with partial pivoting:
/// `a` is overwritten by its factors and `b` by the solution.  Allocates
/// nothing, so a Newton loop can reuse one pair of buffers.  Throws
/// CircuitError when the matrix is numerically singular.
void lu_solve_in_place(Matrix& a, std::vector<double>& b);

}  // namespace sttram::spice
