#pragma once
// DDM expert (paper baseline [5], Li et al. 2018): a CNN classifier combined
// with Gradient-weighted Class Activation Mapping (Grad-CAM). The heatmap
// localizes the damage evidence; its spatial extent can be blended into the
// severity decision. Grad-CAM is computed exactly: the class score is
// backpropagated to the last convolutional layer, channel importances are
// the spatially-averaged gradients, and the map is the rectified
// importance-weighted sum of activations. A vote runs the network forward
// once: the Grad-CAM reads the activations that forward leaves in the layers
// and backpropagates input gradients only, so no parameter gradient moves.

#include "experts/dda_algorithm.hpp"
#include "nn/conv.hpp"

namespace crowdlearn::experts {

struct DdmConfig {
  std::size_t conv1_channels = 12;
  std::size_t conv2_channels = 24;
  std::size_t hidden = 48;
  nn::TrainConfig train{.epochs = 24, .batch_size = 32, .learning_rate = 0.02,
                        .momentum = 0.9, .weight_decay = 1e-4, .shuffle = true,
                        .optimizer = nn::OptimizerKind::kSgd};
  /// Blend weight of the heatmap-extent severity prior into the final vote
  /// (0 disables the blend; the heatmap is still available for localization).
  double heatmap_blend = 0.1;
  /// Heatmap cells above this fraction of the map's peak count as activated.
  double activation_threshold = 0.3;
  double moderate_area = 0.08;  ///< activated fraction above which damage is at least moderate
  double severe_area = 0.30;    ///< activated fraction above which damage is severe
};

class DdmClassifier : public NeuralDdaAlgorithm {
 public:
  explicit DdmClassifier(DdmConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "DDM"; }
  std::unique_ptr<DdaAlgorithm> clone() const override;

  /// Blend of the CNN posterior and the heatmap-extent prior.
  std::vector<double> predict_proba(const dataset::DisasterImage& image) override;

  /// Artifact-cache identity (docs/CACHING.md): architecture sizes, the
  /// heatmap-blend knobs and the shared neural hyperparameters fully
  /// determine this expert's step.
  bool cacheable() const override { return true; }
  void hash_spec(ckpt::Hasher128& h) const override;

  /// Grad-CAM damage heatmap for the given class over the last conv layer's
  /// spatial grid: one inference forward, then the same Grad-CAM the vote
  /// uses. Requires a trained model.
  nn::Tensor3 damage_heatmap(const dataset::DisasterImage& image, std::size_t cls);

  /// Fraction of heatmap cells above activation_threshold x peak value.
  double activated_fraction(const nn::Tensor3& heatmap) const;

 protected:
  nn::Sequential build_model(Rng& rng) override;
  void on_model_loaded() override;
  std::vector<double> encode(const dataset::DisasterImage& image) const override;
  std::vector<std::vector<double>> encode_augmented(
      const dataset::DisasterImage& image) const override;
  nn::TrainConfig train_config() const override { return cfg_.train; }

 private:
  DdmConfig cfg_;
  std::size_t conv2_index_ = 0;  ///< layer index of the Grad-CAM conv layer

  /// Grad-CAM of class `cls` from the state the latest 1-row inference
  /// forward left in the layers (the conv activations, the ReLU input caches
  /// and the MaxPool argmax), shaped 1 x H x W.
  nn::Tensor3 grad_cam(std::size_t cls);

  /// One-hot-ish severity prior from the activated area of the severe-class
  /// Grad-CAM of the latest forward.
  std::vector<double> heatmap_prior();
};

}  // namespace crowdlearn::experts
