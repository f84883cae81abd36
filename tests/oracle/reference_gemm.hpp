#pragma once
// Reference GEMM: the original row-major i-k-j loop, the readable spec the
// cache-blocked production kernel (src/nn/gemm_tiled.hpp) must reproduce
// bit for bit. Test and benchmark code only — nothing under src/ may include
// this header (scripts/check_docs.sh enforces it).
//
// Per output element out(i,j) the products accumulate in ascending-k order,
// in place, with the `a == 0.0` left-operand skip: the same contract as
// Matrix::matmul_rows_into / matmul_rows_accumulate (tests/test_gemm_tiled.cpp).

#include <cstddef>

#include "nn/matrix.hpp"

namespace crowdlearn::oracle {

/// out.row(i) += sum_k a(i,k) * b.row(k) for rows [row_begin, row_end), as
/// Matrix::matmul_rows_accumulate. `out` must be pre-shaped to
/// a.rows() x b.cols().
void reference_matmul_rows_accumulate(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& out,
                                      std::size_t row_begin, std::size_t row_end);

/// Zero-fill rows [row_begin, row_end) of `out`, then accumulate, as
/// Matrix::matmul_rows_into.
void reference_matmul_rows_into(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& out,
                                std::size_t row_begin, std::size_t row_end);

/// (m x n) * (n x p) -> (m x p), as Matrix::matmul.
nn::Matrix reference_matmul(const nn::Matrix& a, const nn::Matrix& b);

}  // namespace crowdlearn::oracle
