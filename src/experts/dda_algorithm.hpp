#pragma once
// The black-box DDA expert interface (paper Definitions 5-6). Every expert
// consumes a DisasterImage and emits a probability distribution over the
// three severity classes — its "expert vote". The system interacts with
// experts only through this interface, mirroring the black-box assumption.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataset/generator.hpp"
#include "nn/sequential.hpp"

namespace crowdlearn::ckpt {
class Writer;
class Reader;
class Hasher128;
struct Digest128;
}

namespace crowdlearn::cache {
class ArtifactCache;
}

namespace crowdlearn::util {
class ThreadPool;
}

namespace crowdlearn::experts {

class DdaAlgorithm {
 public:
  virtual ~DdaAlgorithm() = default;

  /// Train from scratch on the golden labels of the given images.
  virtual void train(const dataset::Dataset& data, const std::vector<std::size_t>& image_ids,
                     Rng& rng) = 0;

  /// Incremental fine-tuning on crowd-provided labels (which may disagree
  /// with the golden labels) — MIC's model-retraining strategy.
  virtual void retrain(const dataset::Dataset& data, const std::vector<std::size_t>& image_ids,
                       const std::vector<std::size_t>& crowd_labels, Rng& rng) = 0;

  /// Expert vote: probability distribution over severity classes.
  virtual std::vector<double> predict_proba(const dataset::DisasterImage& image) = 0;

  virtual std::string name() const = 0;

  /// Deep copy, including trained parameters. Cloning a trained expert lets
  /// callers reuse one expensive training run across schemes/sweep points
  /// while keeping each copy independently retrainable.
  virtual std::unique_ptr<DdaAlgorithm> clone() const = 0;

  /// Whether train() has completed on this instance.
  virtual bool is_trained() const = 0;

  /// Attach a thread pool the expert's internal kernels may chunk work over
  /// (nullptr = serial). The default is a no-op — non-neural experts have no
  /// parallel kernels. The pool must outlive the expert's use of it; outputs
  /// are byte-identical at any thread count (util::ThreadPool contract).
  virtual void set_thread_pool(util::ThreadPool* /*pool*/) {}

  /// Checkpoint hooks (src/ckpt): persist / restore the expert's full
  /// mutable state (trained parameters AND retrain bookkeeping).
  /// The base implementations throw std::logic_error; every expert the
  /// system checkpoints must override both.
  virtual void save_state(ckpt::Writer& w) const;
  virtual void load_state(ckpt::Reader& r);

  /// Cache identity (src/cache, docs/CACHING.md). An expert that returns
  /// true from cacheable() promises that its (re)train step is a pure
  /// function of (spec, checkpoint state, data, labels, RNG stream): two
  /// instances with equal name, equal hash_spec folds and equal save_state
  /// bytes produce bit-identical post-states from identical inputs.
  /// hash_spec must fold every knob that parameterizes train()/retrain()
  /// beyond the mutable state — hyperparameters, architecture sizes,
  /// encoder identity. The default is uncacheable: an expert the cache does
  /// not understand is always recomputed, never wrongly deduplicated.
  virtual bool cacheable() const { return false; }
  virtual void hash_spec(ckpt::Hasher128& h) const;

  /// save_state/load_state as a raw byte payload (no container framing) —
  /// the artifact image the cache keys and stores. load_state_payload throws
  /// kMalformed, and leaves the expert as it was, unless the payload is
  /// exactly one section.
  std::string state_payload() const;
  void load_state_payload(const std::string& payload);

  /// Argmax of predict_proba.
  std::size_t predict(const dataset::DisasterImage& image);

  /// Batch helpers.
  std::vector<std::vector<double>> predict_proba_batch(const dataset::Dataset& data,
                                                       const std::vector<std::size_t>& ids);
  std::vector<std::size_t> predict_batch(const dataset::Dataset& data,
                                         const std::vector<std::size_t>& ids);
  double accuracy(const dataset::Dataset& data, const std::vector<std::size_t>& ids);
};

/// Shared implementation for neural-network experts: owns a Sequential
/// model, an input-encoding hook, and the train/retrain plumbing.
class NeuralDdaAlgorithm : public DdaAlgorithm {
 public:
  void train(const dataset::Dataset& data, const std::vector<std::size_t>& image_ids,
             Rng& rng) override;
  void retrain(const dataset::Dataset& data, const std::vector<std::size_t>& image_ids,
               const std::vector<std::size_t>& crowd_labels, Rng& rng) override;
  std::vector<double> predict_proba(const dataset::DisasterImage& image) override;

  bool trained() const { return trained_; }
  bool is_trained() const override { return trained_; }
  nn::Sequential& model() { return model_; }

  /// Forward the pool to the owned Sequential. Re-applied whenever the
  /// model is rebuilt (train / load_state), and intentionally
  /// NOT copied by copy_neural_state — each clone wires its own pool.
  void set_thread_pool(util::ThreadPool* pool) override;

  /// Checkpoint hooks: the network's layer records (nn/serialize.hpp) plus
  /// the retrain bookkeeping (base_training_ids_, replay rate), so a restored
  /// expert replays golden samples exactly like the saved one. load_state
  /// validates the stored expert name against name() and throws
  /// ckpt::CkptError(kMalformed) on mismatch (a reordered roster must fail
  /// loudly, not load the wrong net); any decode failure leaves the expert
  /// as it was.
  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 protected:
  /// Build the (untrained) network. Called once at the start of train().
  virtual nn::Sequential build_model(Rng& rng) = 0;
  /// Encode one image into the model's input row.
  virtual std::vector<double> encode(const dataset::DisasterImage& image) const = 0;
  /// Training-time augmentation: all encoded variants of one image (the
  /// default is just the identity encoding). Pixel experts override this
  /// with flips — with only 560 golden images, augmentation is what keeps
  /// the CNNs from memorizing background texture.
  virtual std::vector<std::vector<double>> encode_augmented(
      const dataset::DisasterImage& image) const {
    return {encode(image)};
  }
  /// Training hyperparameters for the initial fit.
  virtual nn::TrainConfig train_config() const = 0;
  /// Hyperparameters for incremental retraining (defaults to a few epochs
  /// at a reduced learning rate).
  virtual nn::TrainConfig retrain_config() const;

  nn::Matrix encode_batch(const dataset::Dataset& data,
                          const std::vector<std::size_t>& ids) const;

  /// Fold the shared neural knobs (train/retrain hyperparameters, replay
  /// rate) into a cache key; concrete experts call this from hash_spec()
  /// and add their architecture sizes on top.
  void hash_neural_spec(ckpt::Hasher128& h) const;

  /// Copy the trained model and bookkeeping from another instance (used by
  /// the concrete experts' clone() implementations).
  void copy_neural_state(const NeuralDdaAlgorithm& src);

  /// Hook invoked after load_state() replaces the network (e.g. DDM relocates
  /// its Grad-CAM layer index). It may throw to reject the network, which
  /// load_state then puts back; it must not change state before it throws.
  virtual void on_model_loaded() {}

  nn::Sequential model_;
  util::ThreadPool* pool_ = nullptr;
  bool trained_ = false;
  /// Golden training set remembered for replay during retrain(): fine-tuning
  /// on a handful of (possibly noisy) crowd labels alone would catastrophically
  /// forget the base task, so each retrain mixes in replayed golden samples.
  std::vector<std::size_t> base_training_ids_;
  std::size_t replay_per_new_label_ = 8;
};

/// Fold an nn::TrainConfig into a cache key, field by field.
void hash_train_config(ckpt::Hasher128& h, const nn::TrainConfig& cfg);

/// One expert's (re)train step through the artifact cache (docs/CACHING.md).
/// `compute` must run the actual step on `expert` consuming `child`; the
/// cache key covers (schema_tag, expert name + spec, dataset digest, image
/// ids, labels, the child RNG's stream position, and — when the expert is
/// already trained — its full pre-step checkpoint state). On a miss,
/// `compute` runs and the post-step state + post-step RNG stream are stored;
/// on a hit both are restored, so a hit is bit-identical to recompute. With
/// a null cache or an uncacheable expert this is exactly `compute()`.
void cached_expert_step(cache::ArtifactCache* cache, const char* schema_tag,
                        DdaAlgorithm& expert, const ckpt::Digest128& data_digest,
                        const std::vector<std::size_t>& image_ids,
                        const std::vector<std::size_t>& labels, Rng& child,
                        const std::function<void()>& compute);

}  // namespace crowdlearn::experts
