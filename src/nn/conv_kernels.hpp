#pragma once
// Convolution compute kernels, in two interchangeable flavors:
//
//  * naive_conv2d_forward/backward — the original 7-deep reference loops,
//    retained verbatim. They define the bit patterns everything else must
//    reproduce, and they are what the perf-regression benchmarks compare
//    against (BM_Conv2DForwardNaive etc.).
//  * the im2col building blocks Conv2D assembles into GEMM calls. The
//    im2col column order matches the naive `(ic*k + ky)*k + kx` reduction
//    order exactly, and Matrix::matmul's `a == 0.0` left-operand skip is
//    the same skip set as the naive kernels' `v != 0.0` / `g == 0.0` /
//    bounds checks — so both flavors accumulate identical term sequences
//    and produce byte-identical doubles (tests/test_nn_kernels.cpp).
//
// All kernels assume stride 1, square odd kernels, and "same" zero padding
// pad = (k-1)/2, i.e. identical input and output spatial dimensions. See
// docs/PERFORMANCE.md for the full equivalence argument.

#include <cstddef>

#include "nn/matrix.hpp"
#include "nn/tensor3.hpp"

namespace crowdlearn::nn::kernels {

/// The geometry of one Conv2D layer: shapes share height/width ("same"
/// padding), out.channels is the filter count.
struct ConvGeometry {
  Shape3 in, out;
  std::size_t k = 0;    // kernel side (odd)
  std::size_t pad = 0;  // (k - 1) / 2
};

// --- naive reference ------------------------------------------------------

/// Reference forward: out(s, (oc,y,x)) = b(0,oc) + sum over (ic,ky,kx) of
/// in-bounds nonzero input * weight, accumulated in ascending (ic,ky,kx)
/// order. `out` must be pre-shaped (batch x out.size()); every entry is
/// written.
void naive_conv2d_forward(const ConvGeometry& g, const Matrix& w, const Matrix& b,
                          const Matrix& input, Matrix& out);

/// Reference backward. `grad_input` must be pre-shaped (batch x in.size())
/// and is zero-filled here; `dw`/`db` are accumulated into (+=), matching
/// the layer's cross-batch gradient accumulation semantics.
void naive_conv2d_backward(const ConvGeometry& g, const Matrix& w, const Matrix& cached_input,
                           const Matrix& grad_output, Matrix& grad_input, Matrix& dw,
                           Matrix& db);

// --- im2col building blocks -----------------------------------------------

/// Lower samples [sample_begin, sample_end) of `src` into `cols`: row
/// s*H*W + (y*W + x) holds the k x k window around (y, x) for every channel,
/// column order (c*k + ky)*k + kx, zero-padded out of bounds. `shape`
/// describes `src` rows (C, H, W); `cols` must be pre-shaped to
/// (batch*H*W) x (C*k*k). Sample ranges write disjoint rows, so this is
/// safe to chunk across threads.
void im2col_rows(const Matrix& src, const Shape3& shape, std::size_t k, std::size_t pad,
                 Matrix& cols, std::size_t sample_begin, std::size_t sample_end);

/// wt = w^T written into a pre-shaped (in_c*k*k) x (out_c) buffer.
void transpose_weights(const Matrix& w, Matrix& wt);

/// Transposed-convolution weight layout for the input gradient:
/// w2((oc*k + ky)*k + kx, ic) = w(oc, (ic*k + (k-1-ky))*k + (k-1-kx)).
/// With this layout, gim = im2col(grad_output) x w2 reduces over ascending
/// (oc, ky, kx) — which is exactly the naive backward's per-target term
/// order (oc ascending, then source y/x ascending). `w2` must be pre-shaped
/// to (out_c*k*k) x (in_c).
void flipped_weights(const ConvGeometry& g, const Matrix& w, Matrix& w2);

/// Seed rows [row_begin, row_end) of `om` (a (batch*H*W) x out_c panel)
/// with the bias: om(r, oc) = b(0, oc). The GEMM then accumulates on top,
/// reproducing the naive `acc = b; acc += ...` order.
void fill_bias_rows(const Matrix& b, Matrix& om, std::size_t row_begin, std::size_t row_end);

/// Scatter a (batch*H*W) x channels panel back to channel-major rows:
/// dst(s, c*HW + p) = panel(s*HW + p, c) for samples in
/// [sample_begin, sample_end). Pure copy — no arithmetic.
void scatter_channel_major(const Matrix& panel, Matrix& dst, std::size_t channels,
                           std::size_t hw, std::size_t sample_begin, std::size_t sample_end);

/// Input gradient via the naive scatter loop, restricted to grad_input (no
/// dw/db): for each nonzero grad, scatter g * w over the in-bounds window.
/// Per target the terms arrive (oc, source y, source x) ascending — the same
/// sequence the gather GEMM over the flipped-weight layout reduces in — so
/// the two paths are byte-identical and the caller can pick by gradient
/// density (the `grad == 0.0` skip makes scatter win on sparse post-ReLU
/// training gradients; the GEMM wins dense). Rows of grad_input for samples
/// [sample_begin, sample_end) must be pre-zeroed; sample ranges write
/// disjoint rows, so this chunks across threads.
void conv2d_grad_input_scatter(const ConvGeometry& g, const Matrix& w,
                               const Matrix& grad_output, Matrix& grad_input,
                               std::size_t sample_begin, std::size_t sample_end);

}  // namespace crowdlearn::nn::kernels
