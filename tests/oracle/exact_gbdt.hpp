#pragma once
// Exact-split GBDT: the regression tree that re-sorts every node's rows per
// feature and scans every midpoint between adjacent distinct values, and the
// multiclass softmax booster on top of it. It is the readable spec the
// library's histogram engine (src/gbdt/hist.hpp) is differential-tested
// against (tests/test_gbdt_hist.cpp, tests/test_gbdt.cpp) and the reference
// side of the BM_CqcRetrain pairing in bench_micro. Test and benchmark code
// only — nothing under src/ may include this header (scripts/check_docs.sh
// enforces it).
//
// The objective, leaf values, gradient arithmetic, RNG draws and the
// cross-feature tie-break (gbdt/split.hpp) are the library's, so when every
// feature has no more distinct values than max_bins and subsample = 1, the
// oracle's forest predicts bit-for-bit what gbdt::Gbdt predicts.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbdt/gbdt.hpp"
#include "gbdt/tree.hpp"
#include "util/rng.hpp"

namespace crowdlearn::oracle {

/// Regression tree fit to (gradient, hessian) per sample by exact split
/// search; leaf value = -G / (H + lambda). `cfg.pool` parallelizes the
/// per-feature scans through gbdt::detail::best_split, as in the library.
class ExactRegressionTree {
 public:
  void fit(const gbdt::FeatureMatrix& x, const std::vector<double>& grad,
           const std::vector<double>& hess, const gbdt::TreeConfig& cfg, Rng& rng);

  double predict_row(const gbdt::FeatureMatrix& x, std::size_t row) const;
  double predict(const std::vector<double>& features) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  /// Split feature of every internal node, in node-creation order.
  std::vector<std::size_t> split_features() const;

 private:
  struct Node {
    bool leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;
    std::int32_t left = -1, right = -1;
  };
  std::vector<Node> nodes_;

  std::int32_t build(const gbdt::FeatureMatrix& x, const std::vector<double>& grad,
                     const std::vector<double>& hess, std::vector<std::size_t>& indices,
                     std::size_t depth, const gbdt::TreeConfig& cfg, Rng& rng);

  template <typename Row>
  double predict_impl(Row&& feature_at) const;
};

/// Multiclass softmax GBDT on ExactRegressionTree: gbdt::Gbdt's fit loop with
/// the exact tree in place of the histogram one. `cfg.max_bins` is ignored.
class ExactGbdt {
 public:
  void fit(const gbdt::FeatureMatrix& x, const std::vector<std::size_t>& y,
           std::size_t num_classes, const gbdt::GbdtConfig& cfg);

  std::vector<double> predict_proba(const std::vector<double>& features) const;
  std::size_t predict(const std::vector<double>& features) const;
  double accuracy(const gbdt::FeatureMatrix& x, const std::vector<std::size_t>& y) const;

 private:
  std::size_t k_ = 0;
  double lr_ = 0.1;
  std::vector<ExactRegressionTree> trees_;  // round-major: trees_[round * k_ + class]

  std::vector<double> raw_scores(const std::vector<double>& features) const;
};

}  // namespace crowdlearn::oracle
