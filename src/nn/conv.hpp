#pragma once
// Spatial layers: 2-D convolution ("same" padding, stride 1) and 2x2 max
// pooling. Samples are flattened channel-major (C, H, W) rows of a batch
// Matrix; each layer carries its input geometry in a Shape3.

#include <memory>

#include "nn/conv_kernels.hpp"
#include "nn/layers.hpp"
#include "nn/tensor3.hpp"

namespace crowdlearn::nn {

class Workspace;

/// 2-D convolution with square kernels, stride 1 and zero "same" padding so
/// the spatial dimensions are preserved. The compute path is im2col + GEMM
/// over reusable workspace buffers (see docs/PERFORMANCE.md), bit-identical
/// to the naive reference kernels in tests/oracle/naive_conv.hpp.
class Conv2D : public Layer {
 public:
  Conv2D(Shape3 input_shape, std::size_t out_channels, std::size_t kernel, Rng& rng);
  /// Copies learned state; the workspace binding and retained backward
  /// scratch stay with the original (Sequential::clone rebinds its copies;
  /// backward on a fresh copy requires a fresh forward(training=true)).
  Conv2D(const Conv2D& o);
  Conv2D& operator=(const Conv2D&) = delete;
  // Out-of-line so unique_ptr<Workspace> can be destroyed where Workspace
  // is complete (conv.cpp), keeping this header light.
  ~Conv2D() override;

  Matrix forward(const Matrix& input, bool training) override;
  void forward_into(const Matrix& input, Matrix& out, bool training) override;
  /// Both backward halves need a training forward (its retained im2col
  /// panel); after an inference forward they throw.
  void backward_input(const Matrix& grad_output, Matrix& grad_input) override;
  void backward_params(const Matrix& grad_output) override;
  void bind_workspace(Workspace* ws, std::size_t layer_id) override;
  std::vector<Param> params() override;

  std::size_t input_size() const override { return in_shape_.size(); }
  std::size_t output_size() const override { return out_shape_.size(); }
  std::string name() const override { return "Conv2D"; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Conv2D>(*this); }

  const Shape3& in_shape() const { return in_shape_; }
  const Shape3& out_shape() const { return out_shape_; }
  std::size_t kernel_size() const { return k_; }
  /// Kernel weights, shape (out_channels, in_channels * k * k) row-major.
  const Matrix& kernels() const { return w_; }
  Matrix& kernels() { return w_; }
  const Matrix& bias() const { return b_; }
  Matrix& bias() { return b_; }

 private:
  Shape3 in_shape_, out_shape_;
  std::size_t k_;    // kernel side
  std::size_t pad_;  // (k - 1) / 2
  Matrix w_;         // (out_c, in_c * k * k)
  Matrix b_;         // (1, out_c)
  Matrix dw_, db_;
  Workspace* ws_ = nullptr;            ///< not owned; bound by Sequential
  std::unique_ptr<Workspace> own_ws_;  ///< lazy fallback for standalone use
  std::size_t layer_id_ = 0;
  bool have_fwd_state_ = false;  ///< im2col cols retained for backward?
  std::size_t fwd_batch_ = 0;

  kernels::ConvGeometry geometry() const { return {in_shape_, out_shape_, k_, pad_}; }
  Workspace& scratch();
  void check_backward_state(const Matrix& grad_output) const;
};

/// 2x2 max pooling with stride 2. Requires even spatial dimensions.
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(Shape3 input_shape);

  /// Copies the argmax cache; the workspace binding stays with the original.
  MaxPool2D(const MaxPool2D& o)
      : in_shape_(o.in_shape_), out_shape_(o.out_shape_), argmax_(o.argmax_),
        argmax_batch_(o.argmax_batch_) {}

  Matrix forward(const Matrix& input, bool training) override;
  void forward_into(const Matrix& input, Matrix& out, bool training) override;
  void bind_workspace(Workspace* ws, std::size_t /*layer_id*/) override { ws_ = ws; }
  void backward_input(const Matrix& grad_output, Matrix& grad_input) override;

  std::size_t input_size() const override { return in_shape_.size(); }
  std::size_t output_size() const override { return out_shape_.size(); }
  std::string name() const override { return "MaxPool2D"; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<MaxPool2D>(*this); }

  const Shape3& in_shape() const { return in_shape_; }
  const Shape3& out_shape() const { return out_shape_; }

 private:
  Shape3 in_shape_, out_shape_;
  // Flat input index chosen as the max for each output element; one flat
  // vector (batch * out size) so steady-state forwards never allocate.
  std::vector<std::size_t> argmax_;
  std::size_t argmax_batch_ = 0;
  Workspace* ws_ = nullptr;  ///< not owned; only consulted for the pool
};

/// Global average pooling: each channel collapses to its spatial mean.
/// Used by the DDM expert (the CAM construction requires GAP + Dense).
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(Shape3 input_shape);

  Matrix forward(const Matrix& input, bool training) override;
  void forward_into(const Matrix& input, Matrix& out, bool training) override;
  void backward_input(const Matrix& grad_output, Matrix& grad_input) override;

  const Shape3& in_shape() const { return in_shape_; }
  std::size_t input_size() const override { return in_shape_.size(); }
  std::size_t output_size() const override { return in_shape_.channels; }
  std::string name() const override { return "GlobalAvgPool"; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<GlobalAvgPool>(*this); }

 private:
  Shape3 in_shape_;
};

}  // namespace crowdlearn::nn
