// Dense matrices over GF(256): construction (Cauchy/Vandermonde) and
// Gauss-Jordan inversion, used to build and invert Reed-Solomon decode
// matrices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ec/gf256.hpp"

namespace sdr::ec {

class GfMatrix {
 public:
  GfMatrix() = default;
  GfMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::uint8_t& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  std::uint8_t at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  const std::uint8_t* row(std::size_t r) const { return data_.data() + r * cols_; }
  std::uint8_t* row(std::size_t r) { return data_.data() + r * cols_; }

  static GfMatrix identity(std::size_t n);

  /// Cauchy matrix: a_ij = 1 / (x_i + y_j) with all x_i, y_j distinct.
  /// Every square submatrix of a Cauchy matrix is invertible, which gives
  /// the MDS property for the systematic RS code built from it.
  static GfMatrix cauchy(std::size_t rows, std::size_t cols,
                         std::uint8_t x_base, std::uint8_t y_base);

  GfMatrix multiply(const GfMatrix& other) const;

  /// Gauss-Jordan inverse. Returns false if the matrix is singular.
  bool invert(GfMatrix& out) const;

  /// Select a subset of rows into a new matrix.
  GfMatrix select_rows(const std::vector<std::size_t>& indices) const;

  bool operator==(const GfMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::size_t rows_{0};
  std::size_t cols_{0};
  std::vector<std::uint8_t> data_;
};

}  // namespace sdr::ec
