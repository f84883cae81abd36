#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::nn {

namespace {

/// dst = src^T into a reused buffer (reshaped, capacity kept).
void transpose_into(const Matrix& src, Matrix& dst) {
  dst.reshape(src.cols(), src.rows());
  const double* s = src.data().data();
  double* d = dst.data().data();
  for (std::size_t r = 0; r < src.rows(); ++r)
    for (std::size_t c = 0; c < src.cols(); ++c) d[c * src.rows() + r] = s[r * src.cols() + c];
}

}  // namespace

// The row loops below chunk over util::parallel_chunks. Rows are independent
// targets, so any chunk partition yields the bits the serial loop would.

Dense::Dense(std::size_t in, std::size_t out, Rng& rng)
    : in_(in), out_(out), w_(in, out), b_(1, out), dw_(in, out), db_(1, out) {
  if (in == 0 || out == 0) throw std::invalid_argument("Dense: zero dimension");
  // He-uniform initialization: U(-limit, limit), limit = sqrt(6 / fan_in).
  const double limit = std::sqrt(6.0 / static_cast<double>(in));
  for (std::size_t r = 0; r < in; ++r)
    for (std::size_t c = 0; c < out; ++c) w_(r, c) = rng.uniform(-limit, limit);
}

Matrix Dense::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void Dense::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  if (input.cols() != in_) throw std::invalid_argument("Dense::forward: input width mismatch");
  cached_input_ = input;
  out.reshape(input.rows(), out_);
  // Row-parallel GEMM: each output row's dot products are computed whole on
  // one thread, so the sum order (and therefore every bit) matches the
  // serial input.matmul(w_). Bias is added after, as it always was.
  util::parallel_chunks(pool_of(ws_), input.rows(), in_ * out_,
                        [&](std::size_t begin, std::size_t end) {
                          input.matmul_rows_into(w_, out, begin, end);
                        });
  out.add_row_broadcast(b_);
}

void Dense::backward_params(const Matrix& grad_output) {
  if (cached_input_.empty()) throw std::logic_error("Dense::backward before forward");
  if (grad_output.rows() != cached_input_.rows() || grad_output.cols() != out_)
    throw std::invalid_argument("Dense::backward: grad shape mismatch");
  const std::size_t batch = grad_output.rows();
  // dW += x^T g: the product is formed whole in a panel (each element from
  // +0.0, ascending over samples, zero-skipping x^T) and only then added to
  // dW, so the rounding is the same whether or not dW already holds a
  // gradient. Rows of the panel are independent.
  transpose_into(cached_input_, input_t_);
  dw_panel_.reshape(in_, out_);
  util::parallel_chunks(pool_of(ws_), in_, batch * out_, [&](std::size_t rb, std::size_t re) {
    input_t_.matmul_rows_into(grad_output, dw_panel_, rb, re);
    for (std::size_t i = rb * out_; i < re * out_; ++i) dw_.data()[i] += dw_panel_.data()[i];
  });
  // db += column sums of g: each column summed from 0.0 in ascending rows.
  const double* g = grad_output.data().data();
  for (std::size_t c = 0; c < out_; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < batch; ++r) sum += g[r * out_ + c];
    db_.data()[c] += sum;
  }
}

void Dense::backward_input(const Matrix& grad_output, Matrix& grad_input) {
  if (grad_output.cols() != out_)
    throw std::invalid_argument("Dense::backward: grad shape mismatch");
  // dX = g W^T straight from the row-major W: dX(r, i) is the dot product of
  // g's row r with W's row i, accumulated from +0.0 over ascending j with the
  // `g == 0.0` skip -- the term sequence of g.matmul(W^T), so the bits are
  // the GEMM's. Each row first lists its nonzero columns (the skip, decided
  // once per row instead of per product); eight rows of W then run side by
  // side as independent accumulators, which reorders no single sum. Output
  // rows are independent, hence chunkable.
  constexpr std::size_t kLanes = 8;
  const std::size_t batch = grad_output.rows();
  grad_input.reshape(batch, in_);
  live_cols_.resize(batch * out_);  // capacity reused; each row owns a slice
  const double* g = grad_output.data().data();
  const double* w = w_.data().data();
  double* dx = grad_input.data().data();
  util::parallel_chunks(pool_of(ws_), batch, out_ * in_, [&](std::size_t rb, std::size_t re) {
    for (std::size_t r = rb; r < re; ++r) {
      const double* grow = g + r * out_;
      std::size_t* live = live_cols_.data() + r * out_;
      std::size_t n = 0;
      for (std::size_t j = 0; j < out_; ++j) {
        live[n] = j;
        n += grow[j] != 0.0 ? 1 : 0;
      }
      double* dxrow = dx + r * in_;
      std::size_t i = 0;
      for (; i + kLanes <= in_; i += kLanes) {
        const double* wrows = w + i * out_;
        double acc[kLanes] = {};
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t j = live[k];
          const double gv = grow[j];
          for (std::size_t t = 0; t < kLanes; ++t) acc[t] += gv * wrows[t * out_ + j];
        }
        for (std::size_t t = 0; t < kLanes; ++t) dxrow[i + t] = acc[t];
      }
      for (; i < in_; ++i) {
        const double* wrow = w + i * out_;
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += grow[live[k]] * wrow[live[k]];
        dxrow[i] = acc;
      }
    }
  });
}

std::vector<Param> Dense::params() {
  return {{&w_, &dw_, "Dense.W"}, {&b_, &db_, "Dense.b"}};
}

Matrix ReLU::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void ReLU::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  const std::size_t cols = input.cols();
  cached_input_.reshape(input.rows(), cols);
  out.reshape(input.rows(), cols);
  const double* x = input.data().data();
  double* cache = cached_input_.data().data();
  double* y = out.data().data();
  util::parallel_chunks(pool_of(ws_), input.rows(), cols, [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb * cols; i < re * cols; ++i) {
      const double v = x[i];
      cache[i] = v;
      y[i] = v > 0.0 ? v : 0.0;
    }
  });
}

void ReLU::backward_input(const Matrix& grad_output, Matrix& grad_input) {
  if (cached_input_.empty()) throw std::logic_error("ReLU::backward before forward");
  if (grad_output.rows() != cached_input_.rows() || grad_output.cols() != cached_input_.cols())
    throw std::invalid_argument("ReLU::backward: grad shape mismatch");
  const std::size_t cols = grad_output.cols();
  grad_input.reshape(grad_output.rows(), cols);
  const double* g = grad_output.data().data();
  const double* x = cached_input_.data().data();
  double* dx = grad_input.data().data();
  util::parallel_chunks(pool_of(ws_), grad_output.rows(), cols,
                        [&](std::size_t rb, std::size_t re) {
                          for (std::size_t i = rb * cols; i < re * cols; ++i)
                            dx[i] = x[i] <= 0.0 ? 0.0 : g[i];
                        });
}

const Matrix& ReLU::last_input() const {
  if (cached_input_.empty()) throw std::logic_error("ReLU::last_input before forward");
  return cached_input_;
}

Matrix Tanh::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void Tanh::forward_into(const Matrix& input, Matrix& out, bool /*training*/) {
  out.reshape(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.data().size(); ++i)
    out.data()[i] = std::tanh(input.data()[i]);
  output_copy_ = out;
}

void Tanh::backward_input(const Matrix& grad_output, Matrix& grad_input) {
  if (output_copy_.empty()) throw std::logic_error("Tanh::backward before forward");
  grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.data().size(); ++i) {
    const double y = output_copy_.data()[i];
    grad_input.data()[i] *= (1.0 - y * y);
  }
}

Dropout::Dropout(std::size_t size, double rate, Rng& rng)
    : size_(size), rate_(rate), rng_(rng.fork()) {
  if (rate < 0.0 || rate >= 1.0) throw std::invalid_argument("Dropout: rate must be in [0,1)");
}

Matrix Dropout::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void Dropout::forward_into(const Matrix& input, Matrix& out, bool training) {
  last_training_ = training;
  if (!training || rate_ == 0.0) {
    out = input;
    return;
  }
  // mask_ is reshaped (not reallocated) and fully overwritten below, and the
  // RNG draw order per element is unchanged — bit-identical to the original.
  mask_.reshape(input.rows(), input.cols());
  out.reshape(input.rows(), input.cols());
  const double keep = 1.0 - rate_;
  for (std::size_t i = 0; i < input.data().size(); ++i) {
    const bool kept = rng_.bernoulli(keep);
    mask_.data()[i] = kept ? 1.0 / keep : 0.0;
    out.data()[i] = input.data()[i] * mask_.data()[i];
  }
}

void Dropout::backward_input(const Matrix& grad_output, Matrix& grad_input) {
  if (!last_training_ || rate_ == 0.0) {
    grad_input = grad_output;
    return;
  }
  if (mask_.empty()) throw std::logic_error("Dropout::backward before forward");
  grad_input = grad_output.hadamard(mask_);
}

}  // namespace crowdlearn::nn
