#pragma once
// Reference convolution: the original 7-deep per-pixel loops, and a layer
// that runs on them. Test and benchmark code only — nothing under src/ may
// include this header (scripts/check_docs.sh enforces it).
//
// These loops define the bit patterns the production Conv2D must reproduce
// (src/nn/conv.cpp): its im2col column order is the `(ic*k + ky)*k + kx`
// reduction order below, and its zero-skips are the same skip sets as the
// `v != 0.0` / `grad == 0.0` / bounds checks here, so both accumulate
// identical term sequences (tests/test_nn_kernels.cpp). The backward is
// split by target, which leaves every target's term order as it was.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "nn/sequential.hpp"

namespace crowdlearn::oracle {

/// Forward: out(s, (oc,y,x)) = b(0,oc) + sum over (ic,ky,kx) of in-bounds
/// nonzero input * weight, accumulated in ascending (ic,ky,kx) order. `out`
/// must be pre-shaped (batch x out.size()); every entry is written.
void naive_conv2d_forward(const nn::kernels::ConvGeometry& g, const nn::Matrix& w,
                          const nn::Matrix& b, const nn::Matrix& input, nn::Matrix& out);

/// Weight/bias gradient, accumulated into (+=) `dw`/`db`. Per element the
/// terms arrive samples, then output positions, ascending, with the
/// `grad == 0.0` skip and out-of-bounds windows left out.
void naive_conv2d_weight_grad(const nn::kernels::ConvGeometry& g, const nn::Matrix& input,
                              const nn::Matrix& grad_output, nn::Matrix& dw, nn::Matrix& db);

/// Input gradient. `grad_input` must be pre-shaped (batch x in.size()) and
/// is zero-filled here; per target the terms arrive (oc, source y, source x)
/// ascending with the same skips.
void naive_conv2d_grad_input(const nn::kernels::ConvGeometry& g, const nn::Matrix& w,
                             const nn::Matrix& grad_output, nn::Matrix& grad_input);

/// The geometry of `conv` ("same" padding, stride 1).
nn::kernels::ConvGeometry geometry_of(const nn::Conv2D& conv);

/// A convolution layer on the naive kernels, with a Conv2D's geometry and
/// weights. Its parameters are named like Conv2D's, in the same order, so
/// an optimizer steps both identically; gradients start at zero. A training
/// forward keeps a copy of the input for both backward halves.
class NaiveConv2D : public nn::Layer {
 public:
  explicit NaiveConv2D(const nn::Conv2D& conv);

  nn::Matrix forward(const nn::Matrix& input, bool training) override;
  void forward_into(const nn::Matrix& input, nn::Matrix& out, bool training) override;
  void backward_input(const nn::Matrix& grad_output, nn::Matrix& grad_input) override;
  void backward_params(const nn::Matrix& grad_output) override;
  std::vector<nn::Param> params() override;

  std::size_t input_size() const override { return g_.in.size(); }
  std::size_t output_size() const override { return g_.out.size(); }
  std::string name() const override { return "NaiveConv2D"; }
  std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<NaiveConv2D>(*this);
  }

 private:
  nn::kernels::ConvGeometry g_;
  nn::Matrix w_, b_, dw_, db_;
  nn::Matrix cached_input_;  ///< training forwards only

  void check_backward_state(const nn::Matrix& grad_output) const;
};

/// Deep copy of `model` with every Conv2D replaced by a NaiveConv2D carrying
/// its weights; every other layer is cloned as is.
nn::Sequential with_naive_convs(const nn::Sequential& model);

}  // namespace crowdlearn::oracle
