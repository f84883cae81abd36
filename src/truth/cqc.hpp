#pragma once
// Crowd Quality Control (paper Section IV-C): a gradient-boosted-tree
// classifier over both the workers' labels AND their fixed-form
// questionnaire answers. The questionnaire is what lets CQC beat voting /
// TD-EM / filtering: "is this photoshopped?" overrides a unanimous-but-
// fooled severity vote on a fake image.

#include "gbdt/gbdt.hpp"
#include "truth/aggregator.hpp"

namespace crowdlearn::truth {

/// Feature vector describing one query's response set:
///   [0..2]  vote fraction per severity class
///   [3]     normalized vote entropy (disagreement)
///   [4]     top-vote margin (1st minus 2nd vote fraction)
///   [5..10] mean questionnaire answer per item
///   [11]    mean worker delay (normalized by `delay_scale`) — cheap proxy
///           for answer care, available to the requester
std::vector<double> cqc_features(const QueryResponse& response, double delay_scale = 1500.0);

inline constexpr std::size_t kCqcFeatureDims = 6 + dataset::Questionnaire::kDims;

struct CqcConfig {
  /// The GBDT behind CQC, grown by the histogram split engine every cycle
  /// (docs/GBDT.md). Checkpoints carry the fitted trees only; each retrain
  /// recomputes the bin boundaries from its own training set.
  gbdt::GbdtConfig gbdt{
      .num_rounds = 40,
      .learning_rate = 0.15,
      .subsample = 0.9,
      .tree = {.max_depth = 4, .min_samples_leaf = 4, .lambda = 1.0,
               .min_gain = 1e-6, .colsample = 1.0},
      .seed = 5,
  };
  /// Ablation switch: drop the questionnaire features and learn from vote
  /// statistics alone (reduces CQC to a learned voting rule).
  bool use_questionnaire = true;
  double delay_scale = 1500.0;
};

class CqcAggregator : public Aggregator {
 public:
  explicit CqcAggregator(CqcConfig cfg = {}) : cfg_(cfg) {}

  void fit(const std::vector<LabeledQuery>& training) override;
  std::vector<std::vector<double>> aggregate(const std::vector<QueryResponse>& batch) override;
  const char* name() const override { return "CQC"; }

  bool trained() const { return model_.trained(); }
  const gbdt::Gbdt& model() const { return model_; }
  const CqcConfig& config() const { return cfg_; }

  /// Route the GBDT's split search through a thread pool (nullptr = serial).
  /// The pool must outlive the aggregator. Fitted models are byte-identical
  /// at any thread count (see TreeConfig::pool).
  void set_thread_pool(util::ThreadPool* pool) { cfg_.gbdt.tree.pool = pool; }

  /// Checkpoint hooks (src/ckpt): the trained GBT is the aggregator's only
  /// mutable state; the config is construction-time and travels outside.
  void save_state(ckpt::Writer& w) const { model_.save_state(w); }
  void load_state(ckpt::Reader& r) { model_.load_state(r); }

 private:
  CqcConfig cfg_;
  gbdt::Gbdt model_;

  std::vector<double> features_for(const QueryResponse& response) const;
};

/// Artifact-cache key folds (src/cache, docs/CACHING.md): a memoized CQC fit
/// is keyed by the full configuration plus the training corpus bytes.
/// hash_config covers every knob the fit consumes (the GbdtConfig including
/// bins and seed; the questionnaire ablation; the delay
/// normalization) — but not the thread pool, which never changes the fitted
/// bits. hash_training covers everything feature extraction reads from each
/// labeled query (worker answers, questionnaires, delays) plus the gold
/// labels.
void hash_config(ckpt::Hasher128& h, const CqcConfig& cfg);
void hash_training(ckpt::Hasher128& h, const std::vector<LabeledQuery>& training);

}  // namespace crowdlearn::truth
