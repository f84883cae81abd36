#pragma once
// Layer abstraction for the from-scratch neural-network library.
//
// Batches are Matrix objects with one sample per row. Layers that care about
// spatial structure (Conv2D, MaxPool2D in conv.hpp) interpret each row as a
// flattened channel-major (C, H, W) block via Shape3.

#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace crowdlearn::nn {

class Workspace;

/// A learnable parameter: value and accumulated gradient, exposed to the
/// optimizer by non-owning pointer (the layer owns the storage).
struct Param {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
  std::string name;
};

/// Base class for all layers. forward() must be called before backward();
/// layers may cache activations from the most recent forward pass.
///
/// Backpropagation comes in two halves so a pass that needs only input
/// gradients (Grad-CAM) never touches the parameter gradients: every layer
/// implements backward_input(); only layers with parameters implement
/// backward_params(). Both read the state the latest forward left behind.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute outputs for a batch. `training` toggles dropout-style behavior.
  virtual Matrix forward(const Matrix& input, bool training) = 0;

  /// Allocation-free forward: write the batch output into `out`, reshaping
  /// it (capacity is reused across calls). `out` must not alias `input`.
  /// The default wraps forward(); the hot layers override it to write into
  /// reusable storage directly. Semantics and bit patterns are identical to
  /// forward() either way.
  virtual void forward_into(const Matrix& input, Matrix& out, bool training) {
    out = forward(input, training);
  }

  /// Attach shared scratch storage (and through it the thread pool the
  /// kernels chunk over). `layer_id` namespaces this layer's buffers inside
  /// the workspace. Sequential binds every layer it owns; the default is a
  /// no-op for layers that need no scratch. The workspace must outlive the
  /// layer's use of it; passing nullptr detaches.
  virtual void bind_workspace(Workspace* /*ws*/, std::size_t /*layer_id*/) {}

  /// Input half of backpropagation: given dL/d(output) for the batch of the
  /// latest forward, write dL/d(input) into `grad_input` (reshaped; capacity
  /// reused). Accumulates no parameter gradient. `grad_input` must not alias
  /// `grad_output`.
  virtual void backward_input(const Matrix& grad_output, Matrix& grad_input) = 0;

  /// Parameter half: accumulate (+=) dL/d(params) into the layers' Param
  /// grads. The default is a no-op for layers without parameters.
  virtual void backward_params(const Matrix& /*grad_output*/) {}

  /// Full backward: backward_params(), then backward_input() into a fresh
  /// Matrix, which is returned.
  Matrix backward(const Matrix& grad_output) {
    backward_params(grad_output);
    Matrix grad_input;
    backward_input(grad_output, grad_input);
    return grad_input;
  }

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  virtual std::size_t input_size() const = 0;
  virtual std::size_t output_size() const = 0;
  virtual std::string name() const = 0;

  /// Deep copy, including learned parameters (gradients and activation
  /// caches copy along but are irrelevant to the clone's future use).
  virtual std::unique_ptr<Layer> clone() const = 0;
};

/// Fully connected layer: y = x W + b, with He-uniform initialization.
class Dense : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, Rng& rng);
  /// Copies learned state; the workspace binding and the backward scratch
  /// stay with the original (Sequential::clone rebinds its copies to the
  /// clone's workspace).
  Dense(const Dense& o)
      : in_(o.in_), out_(o.out_), w_(o.w_), b_(o.b_), dw_(o.dw_), db_(o.db_),
        cached_input_(o.cached_input_) {}

  Matrix forward(const Matrix& input, bool training) override;
  void forward_into(const Matrix& input, Matrix& out, bool training) override;
  void bind_workspace(Workspace* ws, std::size_t /*layer_id*/) override { ws_ = ws; }
  void backward_input(const Matrix& grad_output, Matrix& grad_input) override;
  void backward_params(const Matrix& grad_output) override;
  std::vector<Param> params() override;
  std::size_t input_size() const override { return in_; }
  std::size_t output_size() const override { return out_; }
  std::string name() const override { return "Dense"; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Dense>(*this); }

  const Matrix& weights() const { return w_; }
  const Matrix& bias() const { return b_; }
  Matrix& weights() { return w_; }
  Matrix& bias() { return b_; }

 private:
  std::size_t in_, out_;
  Matrix w_, b_;
  Matrix dw_, db_;
  Matrix cached_input_;
  // Backward scratch, reused across steps: input^T and the dW panel for the
  // parameter half, and each gradient row's nonzero columns for the input
  // half.
  Matrix input_t_, dw_panel_;
  std::vector<std::size_t> live_cols_;
  Workspace* ws_ = nullptr;  ///< not owned; only consulted for the pool
};

/// Rectified linear unit.
class ReLU : public Layer {
 public:
  explicit ReLU(std::size_t size) : size_(size) {}
  /// Copies the activation cache; the workspace binding stays with the
  /// original.
  ReLU(const ReLU& o) : size_(o.size_), cached_input_(o.cached_input_) {}

  Matrix forward(const Matrix& input, bool training) override;
  void forward_into(const Matrix& input, Matrix& out, bool training) override;
  void bind_workspace(Workspace* ws, std::size_t /*layer_id*/) override { ws_ = ws; }
  void backward_input(const Matrix& grad_output, Matrix& grad_input) override;
  std::size_t input_size() const override { return size_; }
  std::size_t output_size() const override { return size_; }
  std::string name() const override { return "ReLU"; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<ReLU>(*this); }

  /// Input of the latest forward, training or inference, one row per sample:
  /// bit for bit the output of the layer below. DDM's Grad-CAM reads its CAM
  /// conv's activations here. Throws std::logic_error before any forward.
  const Matrix& last_input() const;

 private:
  std::size_t size_;
  Matrix cached_input_;
  Workspace* ws_ = nullptr;  ///< not owned; only consulted for the pool
};

/// Hyperbolic tangent.
class Tanh : public Layer {
 public:
  explicit Tanh(std::size_t size) : size_(size) {}

  Matrix forward(const Matrix& input, bool training) override;
  void forward_into(const Matrix& input, Matrix& out, bool training) override;
  void backward_input(const Matrix& grad_output, Matrix& grad_input) override;
  std::size_t input_size() const override { return size_; }
  std::size_t output_size() const override { return size_; }
  std::string name() const override { return "Tanh"; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Tanh>(*this); }

 private:
  std::size_t size_;
  Matrix output_copy_;
};

/// Inverted dropout: active only when training; scales kept activations by
/// 1/(1-p) so inference needs no correction.
class Dropout : public Layer {
 public:
  Dropout(std::size_t size, double rate, Rng& rng);

  Matrix forward(const Matrix& input, bool training) override;
  void forward_into(const Matrix& input, Matrix& out, bool training) override;
  void backward_input(const Matrix& grad_output, Matrix& grad_input) override;
  std::size_t input_size() const override { return size_; }
  std::size_t output_size() const override { return size_; }
  std::string name() const override { return "Dropout"; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Dropout>(*this); }
  double rate() const { return rate_; }

 private:
  std::size_t size_;
  double rate_;
  Rng rng_;
  Matrix mask_;
  bool last_training_ = false;
};

}  // namespace crowdlearn::nn
