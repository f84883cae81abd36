#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::nn {

// Every chunked loop below (util::parallel_chunks) writes disjoint
// preallocated slots and keeps each accumulator's term order independent of
// the partition, so the bits match the serial path at any thread count.

Conv2D::Conv2D(Shape3 input_shape, std::size_t out_channels, std::size_t kernel, Rng& rng)
    : in_shape_(input_shape),
      out_shape_{out_channels, input_shape.height, input_shape.width},
      k_(kernel),
      pad_((kernel - 1) / 2),
      w_(out_channels, input_shape.channels * kernel * kernel),
      b_(1, out_channels),
      dw_(out_channels, input_shape.channels * kernel * kernel),
      db_(1, out_channels) {
  if (kernel % 2 == 0 || kernel == 0)
    throw std::invalid_argument("Conv2D: kernel must be odd and > 0");
  if (input_shape.size() == 0 || out_channels == 0)
    throw std::invalid_argument("Conv2D: zero-sized shape");
  const double fan_in = static_cast<double>(input_shape.channels * kernel * kernel);
  const double limit = std::sqrt(6.0 / fan_in);
  for (std::size_t r = 0; r < w_.rows(); ++r)
    for (std::size_t c = 0; c < w_.cols(); ++c) w_(r, c) = rng.uniform(-limit, limit);
}

Conv2D::Conv2D(const Conv2D& o)
    : in_shape_(o.in_shape_),
      out_shape_(o.out_shape_),
      k_(o.k_),
      pad_(o.pad_),
      w_(o.w_),
      b_(o.b_),
      dw_(o.dw_),
      db_(o.db_) {}

Conv2D::~Conv2D() = default;

void Conv2D::bind_workspace(Workspace* ws, std::size_t layer_id) {
  ws_ = ws;
  layer_id_ = layer_id;
  own_ws_.reset();
  have_fwd_state_ = false;  // any retained im2col scratch lived elsewhere
}

Workspace& Conv2D::scratch() {
  if (ws_ != nullptr) return *ws_;
  if (!own_ws_) own_ws_ = std::make_unique<Workspace>();
  return *own_ws_;
}

Matrix Conv2D::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void Conv2D::forward_into(const Matrix& input, Matrix& out, bool training) {
  if (input.cols() != in_shape_.size())
    throw std::invalid_argument("Conv2D::forward: input width mismatch");
#ifndef NDEBUG
  // The zero-skips drop 0*inf = NaN terms, which is only sound when inputs
  // and parameters are finite (see docs/PERFORMANCE.md and
  // tests/test_nn_kernels.cpp, which pin these semantics).
  input.debug_check_finite("Conv2D input");
  w_.debug_check_finite("Conv2D weights");
  b_.debug_check_finite("Conv2D bias");
#endif
  Workspace& ws = scratch();
  util::ThreadPool* pool = ws.pool();
  const std::size_t batch = input.rows();
  const std::size_t hw = out_shape_.height * out_shape_.width;
  const std::size_t ckk = w_.cols();
  const std::size_t oc_n = out_shape_.channels;

  Matrix& cols = ws.buffer(layer_id_, 0, batch * hw, ckk);
  Matrix& wt = ws.buffer(layer_id_, 1, ckk, oc_n);
  Matrix& om = ws.buffer(layer_id_, 2, batch * hw, oc_n);

  util::parallel_chunks(pool, batch, hw * ckk, [&](std::size_t sb, std::size_t se) {
    kernels::im2col_rows(input, in_shape_, k_, pad_, cols, sb, se);
  });
  kernels::transpose_weights(w_, wt);
  // Per output element this accumulates bias + ascending-(ic,ky,kx) products
  // with the `a == 0.0` skip on the im2col value — exactly the term sequence
  // (and skip set: padding and in-bounds zeros alike) of the naive kernel,
  // so the doubles are byte-identical. Rows are independent, hence chunkable.
  util::parallel_chunks(pool, batch * hw, ckk * oc_n, [&](std::size_t rb, std::size_t re) {
    kernels::fill_bias_rows(b_, om, rb, re);
    cols.matmul_rows_accumulate(wt, om, rb, re);
  });
  out.reshape(batch, out_shape_.size());
  util::parallel_chunks(pool, batch, hw * oc_n, [&](std::size_t sb, std::size_t se) {
    kernels::scatter_channel_major(om, out, oc_n, hw, sb, se);
  });

  // Training retains the im2col buffer (slot 0) — it is exactly the cached
  // input the weight gradient needs, so no separate input copy is kept.
  have_fwd_state_ = training;
  fwd_batch_ = batch;
}

void Conv2D::check_backward_state(const Matrix& grad_output) const {
  if (!have_fwd_state_)
    throw std::logic_error("Conv2D::backward before forward (training pass required)");
  if (grad_output.rows() != fwd_batch_ || grad_output.cols() != out_shape_.size())
    throw std::invalid_argument("Conv2D::backward: grad shape mismatch");
}

void Conv2D::backward_params(const Matrix& grad_output) {
  check_backward_state(grad_output);
  Workspace& ws = scratch();
  const std::size_t batch = fwd_batch_;
  const std::size_t hw = out_shape_.height * out_shape_.width;
  const std::size_t oc_n = out_shape_.channels;
  const std::size_t ckk = w_.cols();
  Matrix& cols = ws.buffer(layer_id_, 0, batch * hw, ckk);  // retained from forward

  // Weight/bias gradient: dw += grad^T x cols, where grad^T(oc, s*HW + p) =
  // grad(s, oc, p), formed as a sparse-left product — each nonzero gradient
  // g adds g * (its full im2col row) to dw row oc. Per dw(oc, col) the terms
  // arrive k = s*HW + p ascending, the naive sample-then-position visit
  // order, and the `g == 0.0` skip is the naive skip. The full-width row
  // also adds the padded window terms the naive kernel leaves out, but each
  // is g * 0.0 = ±0.0 landing on an accumulator that started at +0.0 (the
  // optimizer's fill) and so can never be -0.0: adding ±0.0 changes no bit.
  // db(oc) sums the same nonzero gradients in the same order. Output
  // channels own disjoint dw rows / db slots, so chunks by channel are
  // bit-stable.
  util::parallel_chunks(ws.pool(), oc_n, batch * hw * ckk, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t oc = ob; oc < oe; ++oc) {
      double* dwrow = &dw_.data()[oc * ckk];
      double dbv = db_.data()[oc];
      for (std::size_t s = 0; s < batch; ++s) {
        const double* grow = &grad_output.data()[s * grad_output.cols() + oc * hw];
        const double* sample_rows = &cols.data()[s * hw * ckk];
        for (std::size_t p = 0; p < hw; ++p) {
          const double gv = grow[p];
          if (gv == 0.0) continue;
          dbv += gv;
          const double* crow = sample_rows + p * ckk;
          for (std::size_t j = 0; j < ckk; ++j) dwrow[j] += gv * crow[j];
        }
      }
      db_.data()[oc] = dbv;
    }
  });
}

void Conv2D::backward_input(const Matrix& grad_output, Matrix& grad_input) {
  check_backward_state(grad_output);
  const std::size_t batch = grad_output.rows();
  const std::size_t in_size = in_shape_.size();
  const std::size_t hw = out_shape_.height * out_shape_.width;
  const std::size_t work = hw * out_shape_.channels * k_ * k_ * in_shape_.channels;
  grad_input.reshape(batch, in_size);
  const kernels::ConvGeometry g = geometry();
  // Input gradient: for each nonzero output gradient, scatter g * w over its
  // in-bounds window. Per target element the terms arrive (oc, source y,
  // source x) ascending with the naive `grad == 0.0` skip, so the bits are
  // the naive kernel's. Training gradients reach a conv through ReLU and
  // MaxPool, so most are zeros and the skip does most of the work.
  util::parallel_chunks(scratch().pool(), batch, work, [&](std::size_t sb, std::size_t se) {
    std::fill(grad_input.data().begin() + static_cast<std::ptrdiff_t>(sb * in_size),
              grad_input.data().begin() + static_cast<std::ptrdiff_t>(se * in_size), 0.0);
    kernels::conv2d_grad_input_scatter(g, w_, grad_output, grad_input, sb, se);
  });
}

std::vector<Param> Conv2D::params() {
  return {{&w_, &dw_, "Conv2D.W"}, {&b_, &db_, "Conv2D.b"}};
}

MaxPool2D::MaxPool2D(Shape3 input_shape)
    : in_shape_(input_shape),
      out_shape_{input_shape.channels, input_shape.height / 2, input_shape.width / 2} {
  if (input_shape.height % 2 != 0 || input_shape.width % 2 != 0)
    throw std::invalid_argument("MaxPool2D: spatial dimensions must be even");
  if (out_shape_.size() == 0) throw std::invalid_argument("MaxPool2D: degenerate shape");
}

Matrix MaxPool2D::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void MaxPool2D::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  if (input.cols() != in_shape_.size())
    throw std::invalid_argument("MaxPool2D::forward: input width mismatch");
  const std::size_t batch = input.rows();
  const std::size_t in_size = in_shape_.size();
  const std::size_t out_size = out_shape_.size();
  const std::size_t W = in_shape_.width;
  out.reshape(batch, out_size);
  argmax_.resize(batch * out_size);  // capacity reused; every entry rewritten
  argmax_batch_ = batch;

  // Samples are independent: chunk by sample. Window candidates are visited
  // (dy, dx) = (0,0), (0,1), (1,0), (1,1) with a strict `>`, so ties and the
  // all-NaN fallback (index 0) pick the same input as always.
  util::parallel_chunks(pool_of(ws_), batch, in_size, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      const double* x = &input.data()[s * in_size];
      double* y = &out.data()[s * out_size];
      std::size_t* am = &argmax_[s * out_size];
      std::size_t o = 0;  // out_shape_.flat(c, oy, ox), visited in order
      for (std::size_t c = 0; c < out_shape_.channels; ++c) {
        for (std::size_t oy = 0; oy < out_shape_.height; ++oy) {
          for (std::size_t ox = 0; ox < out_shape_.width; ++ox, ++o) {
            const std::size_t top = (c * in_shape_.height + 2 * oy) * W + 2 * ox;
            const std::size_t window[4] = {top, top + 1, top + W, top + W + 1};
            double best = -std::numeric_limits<double>::infinity();
            std::size_t best_flat = 0;
            for (std::size_t flat : window) {
              if (x[flat] > best) {
                best = x[flat];
                best_flat = flat;
              }
            }
            y[o] = best;
            am[o] = best_flat;
          }
        }
      }
    }
  });
}

void MaxPool2D::backward_input(const Matrix& grad_output, Matrix& grad_input) {
  if (argmax_batch_ == 0) throw std::logic_error("MaxPool2D::backward before forward");
  const std::size_t out_size = out_shape_.size();
  if (grad_output.rows() != argmax_batch_ || grad_output.cols() != out_size)
    throw std::invalid_argument("MaxPool2D::backward: grad shape mismatch");
  const std::size_t batch = grad_output.rows();
  const std::size_t in_size = in_shape_.size();
  grad_input.reshape(batch, in_size);
  util::parallel_chunks(pool_of(ws_), batch, in_size, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      const double* g = &grad_output.data()[s * out_size];
      const std::size_t* am = &argmax_[s * out_size];
      double* dx = &grad_input.data()[s * in_size];
      std::fill(dx, dx + in_size, 0.0);
      for (std::size_t o = 0; o < out_size; ++o) dx[am[o]] += g[o];
    }
  });
}

GlobalAvgPool::GlobalAvgPool(Shape3 input_shape) : in_shape_(input_shape) {
  if (input_shape.size() == 0) throw std::invalid_argument("GlobalAvgPool: degenerate shape");
}

Matrix GlobalAvgPool::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void GlobalAvgPool::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  if (input.cols() != in_shape_.size())
    throw std::invalid_argument("GlobalAvgPool::forward: input width mismatch");
  const std::size_t hw = in_shape_.height * in_shape_.width;
  out.reshape(input.rows(), in_shape_.channels);
  for (std::size_t s = 0; s < input.rows(); ++s) {
    for (std::size_t c = 0; c < in_shape_.channels; ++c) {
      double acc = 0.0;
      for (std::size_t i = 0; i < hw; ++i) acc += input(s, c * hw + i);
      out(s, c) = acc / static_cast<double>(hw);
    }
  }
}

void GlobalAvgPool::backward_input(const Matrix& grad_output, Matrix& grad_input) {
  const std::size_t hw = in_shape_.height * in_shape_.width;
  grad_input.reshape(grad_output.rows(), in_shape_.size());  // every element written below
  const double scale = 1.0 / static_cast<double>(hw);
  for (std::size_t s = 0; s < grad_output.rows(); ++s)
    for (std::size_t c = 0; c < in_shape_.channels; ++c)
      for (std::size_t i = 0; i < hw; ++i)
        grad_input(s, c * hw + i) = grad_output(s, c) * scale;
}

}  // namespace crowdlearn::nn
