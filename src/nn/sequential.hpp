#pragma once
// Sequential container + minibatch training loop. This is the complete
// model abstraction the DDA experts are built on.

#include <memory>
#include <vector>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace crowdlearn::util {
class ThreadPool;
}

namespace crowdlearn::nn {

enum class OptimizerKind { kSgd, kAdam };

struct TrainConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 32;
  double learning_rate = 0.01;
  double momentum = 0.9;       ///< SGD only
  double weight_decay = 1e-4;  ///< SGD only (L2)
  bool shuffle = true;
  OptimizerKind optimizer = OptimizerKind::kSgd;
};

struct EpochStats {
  double mean_loss = 0.0;
  double accuracy = 0.0;
};

/// Feed-forward stack of layers. Owns the layers plus a shared nn::Workspace
/// of reusable scratch/activation buffers (sized on first use, reused across
/// forward/backward and across sensing cycles); exposes forward inference,
/// and hard-label / soft-label training.
class Sequential {
 public:
  Sequential();

  /// Append a layer (it is bound to the model's workspace). Adjacent layer
  /// sizes must be compatible.
  void add(std::unique_ptr<Layer> layer);

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  std::size_t input_size() const;
  std::size_t output_size() const;

  /// Forward pass producing raw logits (one row per sample).
  Matrix forward(const Matrix& input, bool training = false);

  /// Allocation-free forward: chains forward_into through the workspace's
  /// ping-pong activation buffers and returns a reference to the final one.
  /// The reference is valid until the next forward_ws/forward call on this
  /// model. Bit-identical to forward().
  const Matrix& forward_ws(const Matrix& input, bool training);

  /// Allocation-free backward through every layer, last to first, given
  /// dL/d(logits) for the batch of the latest forward_ws(training=true).
  /// Input gradients ping-pong through the workspace's gradient buffers;
  /// the first layer's input gradient is never computed (nothing reads it).
  /// Parameter gradients accumulate into the layers' grads, bit-identical to
  /// chaining Layer::backward.
  void backward_ws(const Matrix& grad_logits);

  /// Attach a thread pool (nullptr = serial) that the layer kernels chunk
  /// their batch loops over, under the util::ThreadPool determinism
  /// contract — outputs are byte-identical at any thread count. The pool
  /// must outlive this model's use of it. Not copied by clone().
  void set_thread_pool(util::ThreadPool* pool) { ws_->set_pool(pool); }
  util::ThreadPool* thread_pool() const { return ws_->pool(); }

  /// The model's scratch workspace (tests assert on its grow_count()).
  const Workspace& workspace() const { return *ws_; }

  /// Softmax class probabilities.
  Matrix predict_proba(const Matrix& input);

  /// Argmax class predictions.
  std::vector<std::size_t> predict(const Matrix& input);

  /// Train with hard labels. Returns per-epoch stats (training loss/accuracy).
  std::vector<EpochStats> fit(const Matrix& x, const std::vector<std::size_t>& y,
                              const TrainConfig& cfg, Rng& rng);

  /// Train with soft target distributions (one row per sample).
  std::vector<EpochStats> fit_soft(const Matrix& x, const Matrix& targets,
                                   const TrainConfig& cfg, Rng& rng);

  std::vector<Param> params();

  /// Deep copy of the whole model (layers and learned parameters).
  Sequential clone() const;

  /// Total number of scalar learnable parameters.
  std::size_t num_parameters();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Heap-anchored so the pointer bound into layers survives moves of the
  // Sequential itself (experts move their models around freely).
  std::unique_ptr<Workspace> ws_;

  template <typename MakeLoss>
  std::vector<EpochStats> fit_impl(const Matrix& x, std::size_t n, const TrainConfig& cfg,
                                   Rng& rng, MakeLoss&& make_loss);
};

}  // namespace crowdlearn::nn
