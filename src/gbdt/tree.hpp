#pragma once
// Decision trees: an XGBoost-style regression tree fit to per-sample
// gradient/hessian pairs by the histogram split engine (used by the
// multiclass GBDT behind CQC), and a sample-weighted classification tree
// (used by AdaBoost-SAMME behind the Ensemble baseline).

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace crowdlearn::util {
class ThreadPool;
}

namespace crowdlearn::ckpt {
class Writer;
class Reader;
class Hasher128;
}

namespace crowdlearn::gbdt {

class HistTrainSet;  // gbdt/hist.hpp — quantized training set for fit_hist

/// Dataset view: row-major feature matrix.
struct FeatureMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> values;  // rows * cols, row-major

  double at(std::size_t r, std::size_t c) const { return values[r * cols + c]; }
  static FeatureMatrix from_rows(const std::vector<std::vector<double>>& rows);
};

struct TreeConfig {
  std::size_t max_depth = 4;
  std::size_t min_samples_leaf = 4;
  double lambda = 1.0;       ///< L2 regularization on leaf weights (regression tree)
  double min_gain = 1e-6;    ///< minimum split gain
  double colsample = 1.0;    ///< fraction of features considered per split
  /// Optional pool for feature-parallel split search (not owned; nullptr =
  /// serial). Candidate splits are scanned one feature per task and reduced
  /// on the calling thread with a deterministic tie-break (higher gain, then
  /// lower feature index, then lower threshold), so the fitted tree is
  /// byte-identical at any thread count.
  util::ThreadPool* pool = nullptr;
};

/// Regression tree fit to (gradient, hessian) per sample, minimizing the
/// second-order Taylor objective; leaf value = -G / (H + lambda).
class RegressionTree {
 public:
  RegressionTree() = default;

  /// Histogram-engine fit (gbdt/hist.cpp): split candidates come from the
  /// fixed bin boundaries in `ts` and `rows` selects the (absolute) training
  /// rows this tree sees; grad/hess are indexed by absolute row and must span
  /// ts.rows().
  void fit_hist(const HistTrainSet& ts, const std::vector<std::size_t>& rows,
                const std::vector<double>& grad, const std::vector<double>& hess,
                const TreeConfig& cfg, Rng& rng);

  double predict_row(const FeatureMatrix& x, std::size_t row) const;
  double predict(const std::vector<double>& features) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t depth() const;
  bool trained() const { return !nodes_.empty(); }
  /// Split feature of every internal node, in node-creation order (empty for
  /// a single-leaf tree). Exposed for structural tests, e.g. that equal-gain
  /// splits resolve to the lowest feature index at any thread count.
  std::vector<std::size_t> split_features() const;

  /// Checkpoint hooks (src/ckpt): persist / restore the fitted structure
  /// bit-exactly (gbdt/serialize.cpp). load_state throws
  /// ckpt::CkptError(kMalformed) on inconsistent node tables.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  struct Node {
    bool leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;  // leaf weight
    std::int32_t left = -1, right = -1;
    std::size_t depth = 0;
  };
  std::vector<Node> nodes_;

  std::int32_t build_hist(const HistTrainSet& ts, const std::vector<double>& grad,
                          const std::vector<double>& hess,
                          std::vector<std::size_t>& indices, std::size_t depth,
                          const TreeConfig& cfg, Rng& rng);

  template <typename Row>
  double predict_impl(Row&& feature_at) const;
};

/// Classification tree with per-sample weights (weighted Gini impurity).
class DecisionTreeClassifier {
 public:
  DecisionTreeClassifier() = default;

  void fit(const FeatureMatrix& x, const std::vector<std::size_t>& y,
           const std::vector<double>& sample_weight, std::size_t num_classes,
           const TreeConfig& cfg, Rng& rng);

  std::size_t predict_row(const FeatureMatrix& x, std::size_t row) const;
  std::size_t predict(const std::vector<double>& features) const;
  /// Class distribution at the reached leaf (weighted class frequencies).
  std::vector<double> predict_proba(const std::vector<double>& features) const;

  std::size_t num_classes() const { return k_; }
  bool trained() const { return !nodes_.empty(); }
  /// Split feature of every internal node, in node-creation order.
  std::vector<std::size_t> split_features() const;

  /// Checkpoint hooks (src/ckpt, gbdt/serialize.cpp).
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  struct Node {
    bool leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    std::vector<double> class_dist;  // normalized weighted class frequencies
    std::int32_t left = -1, right = -1;
  };
  std::size_t k_ = 0;
  std::vector<Node> nodes_;

  std::int32_t build(const FeatureMatrix& x, const std::vector<std::size_t>& y,
                     const std::vector<double>& w, std::vector<std::size_t>& indices,
                     std::size_t depth, const TreeConfig& cfg, Rng& rng);

  const Node& descend(const std::vector<double>& features) const;
};

}  // namespace crowdlearn::gbdt
