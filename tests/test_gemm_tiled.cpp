// Differential test battery for the cache-blocked GEMM (nn/gemm_tiled.hpp).
// The contract under test:
//
//   1. Matrix::matmul produces byte-identical doubles to the row-major
//      reference loop (tests/oracle/reference_gemm.hpp) for every shape —
//      the tiling is order-preserving, so each out(i,j) receives exactly the
//      same products in the same ascending-k order, with the same
//      `a == 0.0` left-operand skip.
//   2. Bit identity holds at any thread count: matmul_rows_into over a row
//      partition (how Dense fans out on the pool) composes to the same bits
//      as one full-matrix call, for the library and the reference alike.
//   3. The zero-skip semantics of test_nn_kernels carry over unchanged:
//      -0.0 is skipped like +0.0, and 0 * inf products are dropped (sound
//      only under the finite-input contract debug builds enforce).
//
// Bit identity is checked with std::bit_cast, never EXPECT_DOUBLE_EQ: the
// goldens and checkpoint digests downstream hash raw bytes, so "close" is
// a regression here.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/matrix.hpp"
#include "oracle/reference_gemm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// Random matrix with ~1/4 exact zeros, so the skip branch actually fires.
Matrix sparse_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = random_matrix(rows, cols, rng);
  for (double& v : m.data())
    if (rng.uniform(0.0, 1.0) < 0.25) v = 0.0;
  return m;
}

/// Bitwise (not merely value) comparison: distinguishes -0.0 from +0.0 and
/// compares NaN payloads, which EXPECT_DOUBLE_EQ cannot.
void expect_bitwise_eq(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
              std::bit_cast<std::uint64_t>(b.data()[i]))
        << what << " differs at flat index " << i << ": " << a.data()[i] << " vs "
        << b.data()[i];
  }
}

struct GemmShape {
  std::size_t m, k, p;
};

// Shapes chosen to land on, straddle and fall short of every tile boundary
// in nn/gemm_tiled.hpp (kStripJ = 32, kTileK = 64, kTileJ = 256, kRowBlock
// = 4), plus the degenerate row/column vectors the issue calls out.
const GemmShape kShapes[] = {
    {1, 1, 1},                                  // scalar
    {1, 7, 33},                                 // 1 x N: single-row remainder path
    {9, 5, 1},                                  // N x 1: a single remainder column
    {4, 64, 32},                                // exactly one row quad / k panel / strip
    {5, 65, 33},                                // one past each boundary
    {3, 63, 31},                                // one short of each boundary
    {8, 128, 256},                              // exactly one column panel
    {7, 130, 257},                              // column-panel remainder + odd rows
    {70, 130, 300},                             // crosses every boundary at once
    {2, 300, 5},                                // deep k, narrow p: k-panel seams
};

TEST(GemmTiled, MatmulMatchesReferenceBitwise) {
  for (const GemmShape& s : kShapes) {
    Rng rng(100 + s.m + s.k + s.p);
    const Matrix a = sparse_matrix(s.m, s.k, rng);
    const Matrix b = sparse_matrix(s.k, s.p, rng);
    const Matrix ref = oracle::reference_matmul(a, b);
    const Matrix got = a.matmul(b);
    expect_bitwise_eq(ref, got, "matmul");
  }
}

TEST(GemmTiled, RandomShapeFuzzMatchesReferenceBitwise) {
  // Random shapes spanning [0, 90] per dimension — including empty matrices
  // (any dimension zero), which must neither crash nor touch operand
  // storage. Dense values on even trials, ~25% zeros on odd ones.
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const auto dim = [&rng] {
      return static_cast<std::size_t>(rng.uniform_int(0, 90));
    };
    const std::size_t m = dim(), k = dim(), p = dim();
    const Matrix a = (trial % 2 == 0) ? random_matrix(m, k, rng) : sparse_matrix(m, k, rng);
    const Matrix b = (trial % 2 == 0) ? random_matrix(k, p, rng) : sparse_matrix(k, p, rng);
    const Matrix ref = oracle::reference_matmul(a, b);
    const Matrix got = a.matmul(b);
    ASSERT_EQ(got.rows(), m);
    ASSERT_EQ(got.cols(), p);
    expect_bitwise_eq(ref, got, "fuzz matmul");
  }
}

TEST(GemmTiled, RowPartitionsAreThreadCountInvariant) {
  // matmul_rows_into over the pool's static row chunks — exactly how Dense
  // fans a batch out — must compose to the bits of the single-call product,
  // for the library and the reference alike, at 1/2/8 threads.
  Rng rng(900);
  const Matrix a = sparse_matrix(70, 130, rng);
  const Matrix b = sparse_matrix(130, 300, rng);
  const Matrix ref = oracle::reference_matmul(a, b);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool pool(threads);
    Matrix out(a.rows(), b.cols(), 7.0);  // stale contents: rows_into zero-fills
    Matrix ref_out(a.rows(), b.cols(), 7.0);
    pool.parallel_chunks(a.rows(), [&](std::size_t begin, std::size_t end) {
      a.matmul_rows_into(b, out, begin, end);
      oracle::reference_matmul_rows_into(a, b, ref_out, begin, end);
    });
    expect_bitwise_eq(ref, out, "partitioned matmul_rows_into");
    expect_bitwise_eq(ref, ref_out, "partitioned reference_matmul_rows_into");
  }
}

TEST(GemmTiled, AccumulateSeedsBiasIdentically) {
  // matmul_rows_accumulate's contract: bias first, then ascending-k
  // products. The library and the reference must fold onto the same
  // pre-seeded contents bit for bit (this is the conv forward path with a
  // bias panel).
  Rng rng(77);
  const Matrix a = sparse_matrix(33, 65, rng);
  const Matrix b = sparse_matrix(65, 129, rng);
  const Matrix bias = random_matrix(33, 129, rng);

  Matrix ref = bias;
  oracle::reference_matmul_rows_accumulate(a, b, ref, 0, a.rows());

  Matrix got = bias;
  a.matmul_rows_accumulate(b, got, 0, a.rows());

  expect_bitwise_eq(ref, got, "matmul_rows_accumulate");
}

// --- Zero-skip semantics (mirrors test_nn_kernels conventions) --------------

TEST(GemmTiled, NegativeZeroIsSkippedLikePositiveZero) {
  // `a == 0.0` treats -0.0 as zero (IEEE comparison), so an all--0.0 left
  // operand contributes nothing in the library or the reference, and the
  // zero-filled output keeps its +0.0 bit pattern (a -0.0 + 0.0 add would
  // flip it to +0.0 via a different path — the skip must keep both on the
  // same one).
  Rng rng(13);
  Matrix a(6, 40, 0.0);
  for (double& v : a.data()) v = -0.0;
  const Matrix b = random_matrix(40, 50, rng);

  const Matrix ref = oracle::reference_matmul(a, b);
  const Matrix got = a.matmul(b);
  expect_bitwise_eq(ref, got, "matmul with -0.0 left operand");
  for (double v : got.data())
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v), std::bit_cast<std::uint64_t>(0.0));
}

TEST(GemmTiled, ZeroSkipDropsNonFiniteProductsIdentically) {
  // A zero left operand against an inf right operand: the product 0*inf =
  // NaN is DROPPED by the skip in the library and the reference alike, so
  // the output stays finite.
  // This pinned semantics is only sound under the finite-input contract,
  // which debug builds refuse up front instead.
  Matrix a(5, 33, 0.0);  // all-zero: every product is skipped
  Matrix b(33, 34, 1.0);
  b(4, 7) = std::numeric_limits<double>::infinity();

#ifndef NDEBUG
  EXPECT_THROW(a.matmul(b), std::domain_error);
#else
  const Matrix ref = oracle::reference_matmul(a, b);
  const Matrix got = a.matmul(b);
  expect_bitwise_eq(ref, got, "matmul with inf right operand");
  for (double v : got.data()) EXPECT_TRUE(std::isfinite(v));
#endif
}

TEST(GemmTiled, NonFiniteLeftOperandPropagatesIdentically) {
  // A non-zero non-finite LEFT operand is not skipped: the library must
  // propagate the reference's inf/NaN bit patterns (debug builds throw).
  Rng rng(17);
  Matrix a = random_matrix(4, 40, rng);
  a(1, 5) = std::numeric_limits<double>::infinity();
  a(2, 38) = -std::numeric_limits<double>::infinity();
  const Matrix b = random_matrix(40, 37, rng);

#ifndef NDEBUG
  EXPECT_THROW(a.matmul(b), std::domain_error);
#else
  const Matrix ref = oracle::reference_matmul(a, b);
  const Matrix got = a.matmul(b);
  expect_bitwise_eq(ref, got, "matmul with inf left operand");
#endif
}

}  // namespace
}  // namespace crowdlearn::nn
