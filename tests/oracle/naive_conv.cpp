#include "oracle/naive_conv.hpp"

#include <stdexcept>

namespace crowdlearn::oracle {

using nn::Matrix;
using nn::kernels::ConvGeometry;

namespace {

/// Zero-padded element read.
double input_at(const Matrix& batch, const nn::Shape3& shape, std::size_t sample,
                std::size_t c, long y, long x) {
  if (y < 0 || x < 0 || y >= static_cast<long>(shape.height) ||
      x >= static_cast<long>(shape.width))
    return 0.0;  // zero padding
  const std::size_t flat =
      shape.flat(c, static_cast<std::size_t>(y), static_cast<std::size_t>(x));
  return batch(sample, flat);
}

/// The naive backward visit: every in-bounds (sample, oc, y, x, ic, ky, kx)
/// tap with a nonzero output gradient, in that nesting order. The two
/// gradients differ only in the target each tap updates; `on_grad(oc, grad)`
/// runs once per nonzero gradient before its taps.
template <typename OnGrad, typename OnTap>
void naive_backward_taps(const ConvGeometry& g, const Matrix& grad_output, OnGrad&& on_grad,
                         OnTap&& on_tap) {
  for (std::size_t s = 0; s < grad_output.rows(); ++s) {
    for (std::size_t oc = 0; oc < g.out.channels; ++oc) {
      for (std::size_t y = 0; y < g.out.height; ++y) {
        for (std::size_t x = 0; x < g.out.width; ++x) {
          const double grad = grad_output(s, g.out.flat(oc, y, x));
          if (grad == 0.0) continue;
          on_grad(oc, grad);
          for (std::size_t ic = 0; ic < g.in.channels; ++ic) {
            for (std::size_t ky = 0; ky < g.k; ++ky) {
              for (std::size_t kx = 0; kx < g.k; ++kx) {
                const long iy = static_cast<long>(y + ky) - static_cast<long>(g.pad);
                const long ix = static_cast<long>(x + kx) - static_cast<long>(g.pad);
                if (iy < 0 || ix < 0 || iy >= static_cast<long>(g.in.height) ||
                    ix >= static_cast<long>(g.in.width))
                  continue;
                const std::size_t in_flat = g.in.flat(ic, static_cast<std::size_t>(iy),
                                                      static_cast<std::size_t>(ix));
                on_tap(s, oc, in_flat, (ic * g.k + ky) * g.k + kx, grad);
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

void naive_conv2d_forward(const ConvGeometry& g, const Matrix& w, const Matrix& b,
                          const Matrix& input, Matrix& out) {
  for (std::size_t s = 0; s < input.rows(); ++s) {
    for (std::size_t oc = 0; oc < g.out.channels; ++oc) {
      for (std::size_t y = 0; y < g.out.height; ++y) {
        for (std::size_t x = 0; x < g.out.width; ++x) {
          double acc = b(0, oc);
          for (std::size_t ic = 0; ic < g.in.channels; ++ic) {
            for (std::size_t ky = 0; ky < g.k; ++ky) {
              for (std::size_t kx = 0; kx < g.k; ++kx) {
                const long iy = static_cast<long>(y + ky) - static_cast<long>(g.pad);
                const long ix = static_cast<long>(x + kx) - static_cast<long>(g.pad);
                const double v = input_at(input, g.in, s, ic, iy, ix);
                if (v != 0.0) acc += v * w(oc, (ic * g.k + ky) * g.k + kx);
              }
            }
          }
          out(s, g.out.flat(oc, y, x)) = acc;
        }
      }
    }
  }
}

void naive_conv2d_weight_grad(const ConvGeometry& g, const Matrix& input,
                              const Matrix& grad_output, Matrix& dw, Matrix& db) {
  naive_backward_taps(
      g, grad_output, [&](std::size_t oc, double grad) { db(0, oc) += grad; },
      [&](std::size_t s, std::size_t oc, std::size_t in_flat, std::size_t w_col, double grad) {
        dw(oc, w_col) += grad * input(s, in_flat);
      });
}

void naive_conv2d_grad_input(const ConvGeometry& g, const Matrix& w, const Matrix& grad_output,
                             Matrix& grad_input) {
  grad_input.fill(0.0);
  naive_backward_taps(
      g, grad_output, [](std::size_t, double) {},
      [&](std::size_t s, std::size_t oc, std::size_t in_flat, std::size_t w_col, double grad) {
        grad_input(s, in_flat) += grad * w(oc, w_col);
      });
}

ConvGeometry geometry_of(const nn::Conv2D& conv) {
  return {conv.in_shape(), conv.out_shape(), conv.kernel_size(), (conv.kernel_size() - 1) / 2};
}

NaiveConv2D::NaiveConv2D(const nn::Conv2D& conv)
    : g_(geometry_of(conv)),
      w_(conv.kernels()),
      b_(conv.bias()),
      dw_(w_.rows(), w_.cols()),
      db_(b_.rows(), b_.cols()) {}

Matrix NaiveConv2D::forward(const Matrix& input, bool training) {
  Matrix out;
  forward_into(input, out, training);
  return out;
}

void NaiveConv2D::forward_into(const Matrix& input, Matrix& out, bool training) {
  if (input.cols() != g_.in.size())
    throw std::invalid_argument("NaiveConv2D::forward: input width mismatch");
  cached_input_ = training ? input : Matrix();
  out.reshape(input.rows(), g_.out.size());
  naive_conv2d_forward(g_, w_, b_, input, out);
}

void NaiveConv2D::check_backward_state(const Matrix& grad_output) const {
  if (cached_input_.empty())
    throw std::logic_error("NaiveConv2D::backward before forward (training pass required)");
  if (grad_output.rows() != cached_input_.rows() || grad_output.cols() != g_.out.size())
    throw std::invalid_argument("NaiveConv2D::backward: grad shape mismatch");
}

void NaiveConv2D::backward_input(const Matrix& grad_output, Matrix& grad_input) {
  check_backward_state(grad_output);
  grad_input.reshape(grad_output.rows(), g_.in.size());
  naive_conv2d_grad_input(g_, w_, grad_output, grad_input);
}

void NaiveConv2D::backward_params(const Matrix& grad_output) {
  check_backward_state(grad_output);
  naive_conv2d_weight_grad(g_, cached_input_, grad_output, dw_, db_);
}

std::vector<nn::Param> NaiveConv2D::params() {
  return {{&w_, &dw_, "Conv2D.W"}, {&b_, &db_, "Conv2D.b"}};
}

nn::Sequential with_naive_convs(const nn::Sequential& model) {
  nn::Sequential out;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const nn::Layer& layer = model.layer(i);
    if (const auto* conv = dynamic_cast<const nn::Conv2D*>(&layer))
      out.add(std::make_unique<NaiveConv2D>(*conv));
    else
      out.add(layer.clone());
  }
  return out;
}

}  // namespace crowdlearn::oracle
