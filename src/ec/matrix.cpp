#include "ec/matrix.hpp"

#include <cassert>

namespace sdr::ec {

GfMatrix GfMatrix::identity(std::size_t n) {
  GfMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

GfMatrix GfMatrix::cauchy(std::size_t rows, std::size_t cols,
                          std::uint8_t x_base, std::uint8_t y_base) {
  // x_i = x_base + i, y_j = y_base + j; the caller must keep the two ranges
  // disjoint so x_i + y_j (XOR in GF(2^8)) is never zero.
  const Gf256& gf = Gf256::instance();
  GfMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const auto xi = static_cast<std::uint8_t>(x_base + i);
      const auto yj = static_cast<std::uint8_t>(y_base + j);
      assert((xi ^ yj) != 0 && "Cauchy ranges must be disjoint");
      m.at(i, j) = gf.inv(xi ^ yj);
    }
  }
  return m;
}

GfMatrix GfMatrix::multiply(const GfMatrix& other) const {
  assert(cols_ == other.rows_);
  const Gf256& gf = Gf256::instance();
  GfMatrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const std::uint8_t a = at(i, k);
      if (a == 0) continue;
      const std::uint8_t* arow = gf.mul_row(a);
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out.at(i, j) ^= arow[other.at(k, j)];
      }
    }
  }
  return out;
}

bool GfMatrix::invert(GfMatrix& out) const {
  assert(rows_ == cols_);
  const Gf256& gf = Gf256::instance();
  const std::size_t n = rows_;
  GfMatrix work = *this;
  out = identity(n);

  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot.
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return false;  // singular
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(work.at(pivot, j), work.at(col, j));
        std::swap(out.at(pivot, j), out.at(col, j));
      }
    }
    // Normalize the pivot row.
    const std::uint8_t inv = gf.inv(work.at(col, col));
    for (std::size_t j = 0; j < n; ++j) {
      work.at(col, j) = gf.mul(work.at(col, j), inv);
      out.at(col, j) = gf.mul(out.at(col, j), inv);
    }
    // Eliminate the column elsewhere.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t f = work.at(r, col);
      if (f == 0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        work.at(r, j) ^= gf.mul(f, work.at(col, j));
        out.at(r, j) ^= gf.mul(f, out.at(col, j));
      }
    }
  }
  return true;
}

GfMatrix GfMatrix::select_rows(const std::vector<std::size_t>& indices) const {
  GfMatrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    assert(indices[i] < rows_);
    for (std::size_t j = 0; j < cols_; ++j) {
      out.at(i, j) = at(indices[i], j);
    }
  }
  return out;
}

}  // namespace sdr::ec
