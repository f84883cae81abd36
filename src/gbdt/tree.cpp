#include "gbdt/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "gbdt/split.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::gbdt {

FeatureMatrix FeatureMatrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) throw std::invalid_argument("FeatureMatrix::from_rows: empty input");
  FeatureMatrix m;
  m.rows = rows.size();
  m.cols = rows[0].size();
  m.values.reserve(m.rows * m.cols);
  for (const auto& r : rows) {
    if (r.size() != m.cols) throw std::invalid_argument("FeatureMatrix: ragged rows");
    m.values.insert(m.values.end(), r.begin(), r.end());
  }
  return m;
}

// Split-search helpers (feature_subset, SplitCandidate, improves, best_split)
// live in gbdt/split.hpp, shared by the classification tree below and the
// histogram engine in gbdt/hist.cpp.
using detail::SplitCandidate;

// ---------------------------------------------------------------------------
// RegressionTree
// ---------------------------------------------------------------------------

template <typename Row>
double RegressionTree::predict_impl(Row&& feature_at) const {
  if (nodes_.empty()) throw std::logic_error("RegressionTree: predict before fit");
  std::size_t cur = 0;
  while (!nodes_[cur].leaf) {
    const Node& n = nodes_[cur];
    cur = static_cast<std::size_t>(feature_at(n.feature) <= n.threshold ? n.left : n.right);
  }
  return nodes_[cur].value;
}

double RegressionTree::predict_row(const FeatureMatrix& x, std::size_t row) const {
  return predict_impl([&](std::size_t f) { return x.at(row, f); });
}

double RegressionTree::predict(const std::vector<double>& features) const {
  return predict_impl([&](std::size_t f) { return features.at(f); });
}

std::size_t RegressionTree::depth() const {
  std::size_t d = 0;
  for (const Node& n : nodes_) d = std::max(d, n.depth);
  return d;
}

std::vector<std::size_t> RegressionTree::split_features() const {
  std::vector<std::size_t> feats;
  for (const Node& n : nodes_)
    if (!n.leaf) feats.push_back(n.feature);
  return feats;
}

// ---------------------------------------------------------------------------
// DecisionTreeClassifier
// ---------------------------------------------------------------------------

namespace {

double weighted_gini(const std::vector<double>& class_weight, double total) {
  if (total <= 0.0) return 0.0;
  double g = 1.0;
  for (double w : class_weight) {
    const double p = w / total;
    g -= p * p;
  }
  return g;
}

}  // namespace

void DecisionTreeClassifier::fit(const FeatureMatrix& x, const std::vector<std::size_t>& y,
                                 const std::vector<double>& sample_weight,
                                 std::size_t num_classes, const TreeConfig& cfg, Rng& rng) {
  if (x.rows == 0 || x.cols == 0)
    throw std::invalid_argument("DecisionTreeClassifier::fit: empty data");
  if (y.size() != x.rows || sample_weight.size() != x.rows)
    throw std::invalid_argument("DecisionTreeClassifier::fit: size mismatch");
  if (num_classes < 2) throw std::invalid_argument("DecisionTreeClassifier: need >= 2 classes");
  for (std::size_t label : y)
    if (label >= num_classes)
      throw std::invalid_argument("DecisionTreeClassifier: label out of range");

  k_ = num_classes;
  nodes_.clear();
  std::vector<std::size_t> indices(x.rows);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  build(x, y, sample_weight, indices, 0, cfg, rng);
}

std::int32_t DecisionTreeClassifier::build(const FeatureMatrix& x,
                                           const std::vector<std::size_t>& y,
                                           const std::vector<double>& w,
                                           std::vector<std::size_t>& indices, std::size_t depth,
                                           const TreeConfig& cfg, Rng& rng) {
  std::vector<double> class_weight(k_, 0.0);
  double total = 0.0;
  for (std::size_t i : indices) {
    class_weight[y[i]] += w[i];
    total += w[i];
  }

  Node node;
  node.class_dist = class_weight;
  if (total > 0.0)
    for (double& v : node.class_dist) v /= total;
  else
    std::fill(node.class_dist.begin(), node.class_dist.end(), 1.0 / static_cast<double>(k_));

  auto make_leaf = [&]() {
    nodes_.push_back(node);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const double parent_gini = weighted_gini(class_weight, total);
  if (depth >= cfg.max_depth || indices.size() < 2 * cfg.min_samples_leaf ||
      parent_gini <= 1e-12)
    return make_leaf();

  const std::vector<std::size_t> feats = detail::feature_subset(x.cols, cfg.colsample, rng);
  const SplitCandidate best = detail::best_split(feats, cfg.pool, [&](std::size_t f) {
    SplitCandidate cand;
    cand.feature = f;
    std::vector<std::size_t> sorted = indices;
    std::sort(sorted.begin(), sorted.end(),
              [&](std::size_t a, std::size_t b) { return x.at(a, f) < x.at(b, f); });
    std::vector<double> left_cw(k_, 0.0);
    double left_total = 0.0;
    for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
      left_cw[y[sorted[pos]]] += w[sorted[pos]];
      left_total += w[sorted[pos]];
      const double v = x.at(sorted[pos], f);
      const double v_next = x.at(sorted[pos + 1], f);
      if (v == v_next) continue;
      const std::size_t n_left = pos + 1;
      const std::size_t n_right = sorted.size() - n_left;
      if (n_left < cfg.min_samples_leaf || n_right < cfg.min_samples_leaf) continue;
      std::vector<double> right_cw(k_);
      for (std::size_t c = 0; c < k_; ++c) right_cw[c] = class_weight[c] - left_cw[c];
      const double right_total = total - left_total;
      const double child_gini =
          (left_total * weighted_gini(left_cw, left_total) +
           right_total * weighted_gini(right_cw, right_total)) /
          std::max(total, 1e-12);
      const double gain = parent_gini - child_gini;
      if (gain > cfg.min_gain && (!cand.valid || gain > cand.gain)) {
        cand.valid = true;
        cand.gain = gain;
        cand.threshold = 0.5 * (v + v_next);
      }
    }
    return cand;
  });

  if (!best.valid) return make_leaf();
  const std::size_t best_feature = best.feature;
  const double best_threshold = best.threshold;

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : indices) {
    if (x.at(i, best_feature) <= best_threshold) left_idx.push_back(i);
    else right_idx.push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return make_leaf();

  node.leaf = false;
  node.feature = best_feature;
  node.threshold = best_threshold;
  nodes_.push_back(node);
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left = build(x, y, w, left_idx, depth + 1, cfg, rng);
  const std::int32_t right = build(x, y, w, right_idx, depth + 1, cfg, rng);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

const DecisionTreeClassifier::Node& DecisionTreeClassifier::descend(
    const std::vector<double>& features) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTreeClassifier: predict before fit");
  std::size_t cur = 0;
  while (!nodes_[cur].leaf) {
    const Node& n = nodes_[cur];
    cur = static_cast<std::size_t>(features.at(n.feature) <= n.threshold ? n.left : n.right);
  }
  return nodes_[cur];
}

std::size_t DecisionTreeClassifier::predict(const std::vector<double>& features) const {
  const auto& dist = descend(features).class_dist;
  return static_cast<std::size_t>(
      std::distance(dist.begin(), std::max_element(dist.begin(), dist.end())));
}

std::size_t DecisionTreeClassifier::predict_row(const FeatureMatrix& x, std::size_t row) const {
  std::vector<double> feats(x.cols);
  for (std::size_t c = 0; c < x.cols; ++c) feats[c] = x.at(row, c);
  return predict(feats);
}

std::vector<double> DecisionTreeClassifier::predict_proba(
    const std::vector<double>& features) const {
  return descend(features).class_dist;
}

std::vector<std::size_t> DecisionTreeClassifier::split_features() const {
  std::vector<std::size_t> feats;
  for (const Node& n : nodes_)
    if (!n.leaf) feats.push_back(n.feature);
  return feats;
}

}  // namespace crowdlearn::gbdt
