#pragma once
// Dense row-major matrix of doubles — the numeric workhorse for the
// from-scratch neural-network library. Sized for the small models this
// reproduction trains (16x16 inputs, tiny CNN/MLPs). The matmul family runs
// on one kernel, the cache-blocked GEMM in nn/gemm_tiled.hpp; it is
// order-preserving — every out(i,j) receives its products in ascending-k
// order with the `a == 0.0` left-operand skip — so it is bit-identical to
// the row-major reference loop in tests/oracle/reference_gemm.hpp
// (tests/test_gemm_tiled.cpp).

#include <cstddef>
#include <functional>
#include <vector>

namespace crowdlearn::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Copy of row r as a vector.
  std::vector<double> row(std::size_t r) const;
  void set_row(std::size_t r, const std::vector<double>& values);

  Matrix transpose() const;

  /// Matrix product: (m x n) * (n x p) -> (m x p).
  Matrix matmul(const Matrix& other) const;

  /// Reshape in place to rows x cols, reusing the existing allocation
  /// whenever the new element count fits the current capacity. Element
  /// contents after the call are unspecified (callers overwrite); the
  /// workspace buffers rely on this never shrinking capacity.
  void reshape(std::size_t rows, std::size_t cols);

  /// Partial matmul: zero-fill rows [row_begin, row_end) of `out`, then
  /// accumulate out.row(i) += sum_k (*this)(i,k) * other.row(k) in ascending
  /// k with the same `a == 0.0` left-operand skip as matmul(). `out` must be
  /// pre-shaped to rows() x other.cols(). Calling this over a partition of
  /// [0, rows()) — in any order, from any thread — produces exactly the bits
  /// matmul() would: each output row's term sequence is self-contained.
  void matmul_rows_into(const Matrix& other, Matrix& out, std::size_t row_begin,
                        std::size_t row_end) const;

  /// Like matmul_rows_into but accumulates into `out`'s existing contents —
  /// callers pre-seed bias terms so the per-element accumulation order is
  /// bias first, then ascending-k products (the naive convolution order).
  void matmul_rows_accumulate(const Matrix& other, Matrix& out, std::size_t row_begin,
                              std::size_t row_end) const;

  /// Throw std::domain_error if any entry is non-finite. The matmul kernels
  /// skip zero left operands, which silently drops 0*inf = NaN propagation —
  /// that shortcut is only sound under a finite-input contract, checked here
  /// in debug builds (and callable directly from tests in any build).
  void debug_check_finite(const char* what) const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Element-wise product (Hadamard).
  Matrix hadamard(const Matrix& other) const;

  /// Apply f to every element, returning a new matrix.
  Matrix map(const std::function<double(double)>& f) const;

  /// Add a row vector (1 x cols) to every row; used for biases.
  void add_row_broadcast(const Matrix& row_vec);

  /// Column-wise sum, returning a (1 x cols) matrix; used for bias grads.
  Matrix column_sums() const;

  void fill(double value);

  /// Sum of squares of all entries (for regularization / grad-norm checks).
  double squared_norm() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;

  void check_same_shape(const Matrix& other, const char* op) const;
};

}  // namespace crowdlearn::nn
