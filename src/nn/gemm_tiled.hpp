#pragma once
// Shared body of the cache-blocked GEMM kernel behind Matrix::matmul. This
// header is compiled into two translation units — gemm_tiled_generic.cpp
// (portable baseline ISA) and gemm_tiled_avx512.cpp (wider vectors, built
// only when the compiler supports -mavx512f) — and Matrix picks one at
// runtime. The ISA split lives at the TU boundary, not in a target
// attribute, because GCC's target("avx512f") quietly licenses FMA
// contraction, and a fused multiply-add rounds once where the contract
// requires twice: the bits would drift from the reference loop
// (tests/oracle/reference_gemm.hpp). The AVX-512 TU is therefore compiled
// with -ffp-contract=off.
//
// The blocking is order-preserving. Per output element out(i,j) the
// contract (see Matrix::matmul_rows_into) is: products accumulate in
// ascending-k order, with the `a == 0.0` left-operand skip. Every loop
// transform here respects that:
//   * (jj, kk) panels: an output element lives in exactly one jj panel; kk
//     panels are visited ascending with k ascending inside, so the add
//     sequence per element is untouched.
//   * row quads: rows are independent output elements — interleaving their
//     k loops shares each B load across kRowBlock rows (the L2-bandwidth
//     win) without reordering any single element's terms.
//   * register strips: holding a j-strip of out in locals between panel
//     boundary loads/stores performs the same adds on the same values;
//     x86-64 doubles carry no excess precision, so register residency
//     cannot change a bit.
// tests/test_gemm_tiled.cpp holds the bitwise differential battery.

#include <algorithm>
#include <cstddef>

namespace crowdlearn::nn::detail {
// Anonymous namespace on purpose: the body must have INTERNAL linkage.
// With ordinary inline linkage both TUs would emit the same COMDAT symbol
// and the linker would keep exactly one copy — whichever object is seen
// first — silently routing the AVX-512 entry point through baseline code
// (or vice versa). Internal linkage gives each TU its own instantiation,
// which is the whole point of compiling this header twice.
namespace {

// Tile extents. The hot panel is kTileK x kTileJ of B (128 KiB, L2
// resident across the whole row sweep); each row quad streams its A
// segments and out strips through without evicting it. kStripJ doubles of
// out per row live in registers across a k panel — 4 rows x 32 columns is
// 16 full-width accumulator vectors under AVX-512, within the 32-register
// file, and spills only mildly under SSE2 where perf is not gated.
inline constexpr std::size_t kTileK = 64;
inline constexpr std::size_t kTileJ = 256;
inline constexpr std::size_t kStripJ = 32;
inline constexpr std::size_t kRowBlock = 4;

// One (jj, kk) panel for `Rows` consecutive output rows starting at i0.
template <std::size_t Rows>
inline void gemm_panel_rows(const double* a, const double* b, double* out, std::size_t i0,
                            std::size_t k_dim, std::size_t p, std::size_t jj, std::size_t je,
                            std::size_t kk, std::size_t ke) {
  const double* arow[Rows];
  double* orow[Rows];
  for (std::size_t r = 0; r < Rows; ++r) {
    arow[r] = &a[(i0 + r) * k_dim];
    orow[r] = &out[(i0 + r) * p];
  }
  std::size_t js = jj;
  for (; js + kStripJ <= je; js += kStripJ) {
    double acc[Rows][kStripJ];
    for (std::size_t r = 0; r < Rows; ++r)
      for (std::size_t t = 0; t < kStripJ; ++t) acc[r][t] = orow[r][js + t];
    for (std::size_t k = kk; k < ke; ++k) {
      const double* bseg = &b[k * p + js];
      for (std::size_t r = 0; r < Rows; ++r) {
        const double av = arow[r][k];
        if (av == 0.0) continue;
        for (std::size_t t = 0; t < kStripJ; ++t) acc[r][t] += av * bseg[t];
      }
    }
    for (std::size_t r = 0; r < Rows; ++r)
      for (std::size_t t = 0; t < kStripJ; ++t) orow[r][js + t] = acc[r][t];
  }
  // Column remainder (p not a multiple of kStripJ): one partial strip of
  // runtime width w < kStripJ. Same ascending-k order and zero skip; the
  // inner loops stay contiguous over B so narrow outputs (small Dense
  // layers, few conv output channels) keep the vectorizable shape instead
  // of degrading to strided scalar column walks.
  if (js < je) {
    const std::size_t w = je - js;
    double acc[Rows][kStripJ];
    for (std::size_t r = 0; r < Rows; ++r)
      for (std::size_t t = 0; t < w; ++t) acc[r][t] = orow[r][js + t];
    for (std::size_t k = kk; k < ke; ++k) {
      const double* bseg = &b[k * p + js];
      for (std::size_t r = 0; r < Rows; ++r) {
        const double av = arow[r][k];
        if (av == 0.0) continue;
        for (std::size_t t = 0; t < w; ++t) acc[r][t] += av * bseg[t];
      }
    }
    for (std::size_t r = 0; r < Rows; ++r)
      for (std::size_t t = 0; t < w; ++t) orow[r][js + t] = acc[r][t];
  }
}

// Accumulate out[rb..re) += a[rb..re) * b for an (m x k_dim) * (k_dim x p)
// product, cache-blocked. Caller has already validated shapes and rejected
// degenerate extents.
inline void gemm_tiled_rows(const double* a, const double* b, double* out, std::size_t row_begin,
                            std::size_t row_end, std::size_t k_dim, std::size_t p) {
  for (std::size_t jj = 0; jj < p; jj += kTileJ) {
    const std::size_t je = std::min(jj + kTileJ, p);
    for (std::size_t kk = 0; kk < k_dim; kk += kTileK) {
      const std::size_t ke = std::min(kk + kTileK, k_dim);
      std::size_t i = row_begin;
      for (; i + kRowBlock <= row_end; i += kRowBlock)
        gemm_panel_rows<kRowBlock>(a, b, out, i, k_dim, p, jj, je, kk, ke);
      for (; i < row_end; ++i) gemm_panel_rows<1>(a, b, out, i, k_dim, p, jj, je, kk, ke);
    }
  }
}

}  // namespace
}  // namespace crowdlearn::nn::detail
