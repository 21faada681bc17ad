#include "sttram/spice/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sttram/common/error.hpp"

namespace sttram::spice {

void Matrix::clear() { std::fill(data_.begin(), data_.end(), 0.0); }

void lu_solve_in_place(Matrix& a, std::vector<double>& b) {
  const std::size_t n = a.rows();
  require(a.cols() == n && b.size() == n,
          "lu_solve_in_place: need a square matrix and a matching RHS");
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting; the RHS rows swap with the matrix rows.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(a(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) {
      throw CircuitError(
          "lu_solve_in_place: singular MNA matrix (floating node or "
          "voltage-source loop?)");
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a(k, c), a(pivot_row, c));
      }
      std::swap(b[k], b[pivot_row]);
    }
    const double inv_pivot = 1.0 / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = a(r, k) * inv_pivot;
      a(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        a(r, c) -= factor * a(k, c);
      }
    }
  }
  // Forward substitution (unit lower triangle).
  for (std::size_t r = 1; r < n; ++r) {
    double s = b[r];
    for (std::size_t c = 0; c < r; ++c) s -= a(r, c) * b[c];
    b[r] = s;
  }
  // Back substitution.
  for (std::size_t rr = n; rr-- > 0;) {
    double s = b[rr];
    for (std::size_t c = rr + 1; c < n; ++c) s -= a(rr, c) * b[c];
    b[rr] = s / a(rr, rr);
  }
}

}  // namespace sttram::spice
