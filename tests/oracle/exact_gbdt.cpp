#include "oracle/exact_gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "gbdt/split.hpp"

namespace crowdlearn::oracle {

using gbdt::FeatureMatrix;
using gbdt::TreeConfig;
using gbdt::detail::SplitCandidate;

// ---------------------------------------------------------------------------
// ExactRegressionTree
// ---------------------------------------------------------------------------

void ExactRegressionTree::fit(const FeatureMatrix& x, const std::vector<double>& grad,
                              const std::vector<double>& hess, const TreeConfig& cfg,
                              Rng& rng) {
  if (x.rows == 0 || x.cols == 0)
    throw std::invalid_argument("ExactRegressionTree::fit: empty data");
  if (grad.size() != x.rows || hess.size() != x.rows)
    throw std::invalid_argument("ExactRegressionTree::fit: grad/hess size mismatch");
  nodes_.clear();
  std::vector<std::size_t> indices(x.rows);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  build(x, grad, hess, indices, 0, cfg, rng);
}

std::int32_t ExactRegressionTree::build(const FeatureMatrix& x, const std::vector<double>& grad,
                                        const std::vector<double>& hess,
                                        std::vector<std::size_t>& indices, std::size_t depth,
                                        const TreeConfig& cfg, Rng& rng) {
  double g_sum = 0.0, h_sum = 0.0;
  for (std::size_t i : indices) {
    g_sum += grad[i];
    h_sum += hess[i];
  }

  Node node;
  node.value = -g_sum / (h_sum + cfg.lambda);

  auto make_leaf = [&]() {
    nodes_.push_back(node);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (depth >= cfg.max_depth || indices.size() < 2 * cfg.min_samples_leaf) return make_leaf();

  const double parent_score = g_sum * g_sum / (h_sum + cfg.lambda);

  // Same subset draw, in the same RNG position, as the histogram engine.
  const std::vector<std::size_t> feats = gbdt::detail::feature_subset(x.cols, cfg.colsample, rng);
  const SplitCandidate best = gbdt::detail::best_split(feats, cfg.pool, [&](std::size_t f) {
    // Sort indices by feature value and scan every split point.
    SplitCandidate cand;
    cand.feature = f;
    std::vector<std::size_t> sorted = indices;
    std::sort(sorted.begin(), sorted.end(),
              [&](std::size_t a, std::size_t b) { return x.at(a, f) < x.at(b, f); });
    double gl = 0.0, hl = 0.0;
    for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
      gl += grad[sorted[pos]];
      hl += hess[sorted[pos]];
      const double v = x.at(sorted[pos], f);
      const double v_next = x.at(sorted[pos + 1], f);
      if (v == v_next) continue;  // cannot split between equal values
      const std::size_t n_left = pos + 1;
      const std::size_t n_right = sorted.size() - n_left;
      if (n_left < cfg.min_samples_leaf || n_right < cfg.min_samples_leaf) continue;
      const double gr = g_sum - gl, hr = h_sum - hl;
      const double gain = gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda) -
                          parent_score;
      if (gain > cfg.min_gain && (!cand.valid || gain > cand.gain)) {
        cand.valid = true;
        cand.gain = gain;
        cand.threshold = 0.5 * (v + v_next);
      }
    }
    return cand;
  });

  if (!best.valid) return make_leaf();

  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : indices) {
    if (x.at(i, best.feature) <= best.threshold) left_idx.push_back(i);
    else right_idx.push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return make_leaf();

  node.leaf = false;
  node.feature = best.feature;
  node.threshold = best.threshold;
  nodes_.push_back(node);
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left = build(x, grad, hess, left_idx, depth + 1, cfg, rng);
  const std::int32_t right = build(x, grad, hess, right_idx, depth + 1, cfg, rng);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

template <typename Row>
double ExactRegressionTree::predict_impl(Row&& feature_at) const {
  if (nodes_.empty()) throw std::logic_error("ExactRegressionTree: predict before fit");
  std::size_t cur = 0;
  while (!nodes_[cur].leaf) {
    const Node& n = nodes_[cur];
    cur = static_cast<std::size_t>(feature_at(n.feature) <= n.threshold ? n.left : n.right);
  }
  return nodes_[cur].value;
}

double ExactRegressionTree::predict_row(const FeatureMatrix& x, std::size_t row) const {
  return predict_impl([&](std::size_t f) { return x.at(row, f); });
}

double ExactRegressionTree::predict(const std::vector<double>& features) const {
  return predict_impl([&](std::size_t f) { return features.at(f); });
}

std::vector<std::size_t> ExactRegressionTree::split_features() const {
  std::vector<std::size_t> feats;
  for (const Node& n : nodes_)
    if (!n.leaf) feats.push_back(n.feature);
  return feats;
}

// ---------------------------------------------------------------------------
// ExactGbdt
// ---------------------------------------------------------------------------

void ExactGbdt::fit(const FeatureMatrix& x, const std::vector<std::size_t>& y,
                    std::size_t num_classes, const gbdt::GbdtConfig& cfg) {
  if (x.rows == 0 || y.size() != x.rows || num_classes < 2)
    throw std::invalid_argument("ExactGbdt::fit: bad training set");
  k_ = num_classes;
  lr_ = cfg.learning_rate;
  trees_.clear();

  const std::size_t n = x.rows;
  Rng rng(cfg.seed);
  std::vector<double> scores(n * k_, 0.0);
  std::vector<double> probs(n * k_);

  for (std::size_t round = 0; round < cfg.num_rounds; ++round) {
    // Row-wise softmax of the score table.
    probs = scores;
    for (std::size_t i = 0; i < n; ++i) {
      double* row = &probs[i * k_];
      const double mx = *std::max_element(row, row + k_);
      double denom = 0.0;
      for (std::size_t c = 0; c < k_; ++c) {
        row[c] = std::exp(row[c] - mx);
        denom += row[c];
      }
      for (std::size_t c = 0; c < k_; ++c) row[c] /= denom;
    }

    // The round's row subsample: the library's draw, in the same position.
    std::vector<std::size_t> rows;
    if (cfg.subsample < 1.0) {
      const auto keep = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(cfg.subsample * static_cast<double>(n))));
      rows = rng.sample_without_replacement(n, keep);
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
    }

    // The exact tree sees only the subsampled rows, as its own matrix.
    FeatureMatrix xs;
    xs.rows = rows.size();
    xs.cols = x.cols;
    xs.values.resize(xs.rows * xs.cols);
    for (std::size_t i = 0; i < rows.size(); ++i)
      for (std::size_t c = 0; c < x.cols; ++c) xs.values[i * x.cols + c] = x.at(rows[i], c);

    for (std::size_t cls = 0; cls < k_; ++cls) {
      std::vector<double> g(rows.size()), h(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const double p = probs[rows[i] * k_ + cls];
        const double target = (y[rows[i]] == cls) ? 1.0 : 0.0;
        g[i] = p - target;
        h[i] = std::max(p * (1.0 - p), 1e-6);
      }
      ExactRegressionTree tree;
      tree.fit(xs, g, h, cfg.tree, rng);
      for (std::size_t i = 0; i < n; ++i)
        scores[i * k_ + cls] += cfg.learning_rate * tree.predict_row(x, i);
      trees_.push_back(std::move(tree));
    }
  }
}

std::vector<double> ExactGbdt::raw_scores(const std::vector<double>& features) const {
  if (trees_.empty()) throw std::logic_error("ExactGbdt: predict before fit");
  std::vector<double> scores(k_, 0.0);
  const std::size_t rounds = trees_.size() / k_;
  for (std::size_t round = 0; round < rounds; ++round)
    for (std::size_t cls = 0; cls < k_; ++cls)
      scores[cls] += lr_ * trees_[round * k_ + cls].predict(features);
  return scores;
}

std::vector<double> ExactGbdt::predict_proba(const std::vector<double>& features) const {
  std::vector<double> scores = raw_scores(features);
  const double mx = *std::max_element(scores.begin(), scores.end());
  double denom = 0.0;
  for (double& s : scores) {
    s = std::exp(s - mx);
    denom += s;
  }
  for (double& s : scores) s /= denom;
  return scores;
}

std::size_t ExactGbdt::predict(const std::vector<double>& features) const {
  const std::vector<double> scores = raw_scores(features);
  return static_cast<std::size_t>(
      std::distance(scores.begin(), std::max_element(scores.begin(), scores.end())));
}

double ExactGbdt::accuracy(const FeatureMatrix& x, const std::vector<std::size_t>& y) const {
  if (y.size() != x.rows) throw std::invalid_argument("ExactGbdt::accuracy: size mismatch");
  std::size_t correct = 0;
  std::vector<double> feats(x.cols);
  for (std::size_t r = 0; r < x.rows; ++r) {
    for (std::size_t c = 0; c < x.cols; ++c) feats[c] = x.at(r, c);
    if (predict(feats) == y[r]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(y.size());
}

}  // namespace crowdlearn::oracle
