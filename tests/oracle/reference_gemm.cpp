#include "oracle/reference_gemm.hpp"

#include <algorithm>
#include <stdexcept>

namespace crowdlearn::oracle {

void reference_matmul_rows_accumulate(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& out,
                                      std::size_t row_begin, std::size_t row_end) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("reference_matmul: inner dimension mismatch");
  if (out.rows() != a.rows() || out.cols() != b.cols())
    throw std::invalid_argument("reference_matmul: output shape mismatch");
  if (row_end > a.rows() || row_begin > row_end)
    throw std::out_of_range("reference_matmul: row range out of range");
  const std::size_t n = a.cols(), p = b.cols();
  if (n == 0 || p == 0) return;  // never index empty operand storage
  // Stride-1 over both operands, but every output row re-streams all of B:
  // the L2 miss bill the tiled kernel exists to avoid.
  for (std::size_t i = row_begin; i < row_end; ++i) {
    double* orow = &out.data()[i * p];
    for (std::size_t k = 0; k < n; ++k) {
      const double av = a.data()[i * n + k];
      if (av == 0.0) continue;
      const double* brow = &b.data()[k * p];
      for (std::size_t j = 0; j < p; ++j) orow[j] += av * brow[j];
    }
  }
}

void reference_matmul_rows_into(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& out,
                                std::size_t row_begin, std::size_t row_end) {
  if (row_end > out.rows() || row_begin > row_end)
    throw std::out_of_range("reference_matmul: row range out of range");
  std::fill(out.data().begin() + static_cast<std::ptrdiff_t>(row_begin * out.cols()),
            out.data().begin() + static_cast<std::ptrdiff_t>(row_end * out.cols()), 0.0);
  reference_matmul_rows_accumulate(a, b, out, row_begin, row_end);
}

nn::Matrix reference_matmul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.cols());
  reference_matmul_rows_accumulate(a, b, out, 0, a.rows());
  return out;
}

}  // namespace crowdlearn::oracle
