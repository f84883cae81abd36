#pragma once
// Multiclass gradient-boosted decision trees with the softmax objective —
// the same model family as XGBoost, which the paper's CQC module uses to
// fuse worker labels with questionnaire evidence. Trees are grown by the
// histogram split engine (gbdt/hist.hpp, docs/GBDT.md); the exact per-node
// sort search it is differential-tested against lives in the test oracle
// (tests/oracle/exact_gbdt.hpp).

#include <cstddef>
#include <string>
#include <vector>

#include "gbdt/tree.hpp"
#include "util/rng.hpp"

namespace crowdlearn::gbdt {

struct GbdtConfig {
  std::size_t num_rounds = 60;     ///< boosting rounds (trees per class)
  double learning_rate = 0.15;     ///< shrinkage
  double subsample = 0.8;          ///< row subsampling per round
  std::size_t max_bins = 64;       ///< max quantile bins per feature (gbdt/hist.hpp)
  TreeConfig tree;                 ///< per-tree configuration
  std::uint64_t seed = 1;
};

/// Multiclass GBDT. One regression tree per class per round, fit to the
/// softmax cross-entropy gradient g = p - y and hessian h = p (1 - p).
class Gbdt {
 public:
  Gbdt() = default;

  void fit(const FeatureMatrix& x, const std::vector<std::size_t>& y, std::size_t num_classes,
           const GbdtConfig& cfg);

  std::vector<double> predict_proba(const std::vector<double>& features) const;
  std::size_t predict(const std::vector<double>& features) const;

  std::vector<std::size_t> predict_batch(const FeatureMatrix& x) const;
  double accuracy(const FeatureMatrix& x, const std::vector<std::size_t>& y) const;

  std::size_t num_classes() const { return k_; }
  std::size_t num_rounds() const { return k_ == 0 ? 0 : trees_.size() / k_; }
  bool trained() const { return !trees_.empty(); }

  /// Checkpoint hooks (src/ckpt, gbdt/serialize.cpp): persist / restore what
  /// prediction reads — class count, shrinkage and the trees — bit-exactly.
  /// The bin boundaries are not kept: the next fit recomputes them.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

  /// save_state/load_state as a raw byte payload (no container framing) —
  /// the artifact image the content-addressed cache stores for a memoized
  /// CQC fit (src/cache, docs/CACHING.md).
  std::string state_payload() const;
  void load_state_payload(const std::string& payload);

 private:
  std::size_t k_ = 0;
  double lr_ = 0.1;  ///< shrinkage captured from the fit config
  std::vector<RegressionTree> trees_;  // round-major: trees_[round * k_ + class]

  std::vector<double> raw_scores(const std::vector<double>& features) const;
};

/// Fold every fit-relevant GbdtConfig knob into a cache key: rounds,
/// shrinkage, subsampling, bins, tree shape and seed. The
/// tree's thread pool is deliberately excluded — fitted models are
/// byte-identical at any thread count (TreeConfig::pool contract).
void hash_config(ckpt::Hasher128& h, const GbdtConfig& cfg);

}  // namespace crowdlearn::gbdt
