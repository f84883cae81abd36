#include "gbdt/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "gbdt/hist.hpp"

namespace crowdlearn::gbdt {

namespace {

/// Row-wise softmax over a (n x k) score table stored row-major.
void softmax_rows(std::vector<double>& scores, std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < n; ++i) {
    double* row = &scores[i * k];
    const double mx = *std::max_element(row, row + k);
    double denom = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      row[c] = std::exp(row[c] - mx);
      denom += row[c];
    }
    for (std::size_t c = 0; c < k; ++c) row[c] /= denom;
  }
}

/// Row subsample for one boosting round, shared across the round's K trees.
/// The exact-engine oracle (tests/oracle/exact_gbdt.cpp) makes the same draw
/// in the same fit-loop position, so both see the same rows.
std::vector<std::size_t> round_subsample(std::size_t n, double subsample, Rng& rng) {
  std::vector<std::size_t> rows;
  if (subsample < 1.0) {
    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(subsample * static_cast<double>(n))));
    rows = rng.sample_without_replacement(n, keep);
  } else {
    rows.resize(n);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
  }
  return rows;
}

}  // namespace

void Gbdt::fit(const FeatureMatrix& x, const std::vector<std::size_t>& y,
               std::size_t num_classes, const GbdtConfig& cfg) {
  if (x.rows == 0) throw std::invalid_argument("Gbdt::fit: empty data");
  if (y.size() != x.rows) throw std::invalid_argument("Gbdt::fit: label count mismatch");
  if (num_classes < 2) throw std::invalid_argument("Gbdt::fit: need >= 2 classes");
  for (std::size_t label : y)
    if (label >= num_classes) throw std::invalid_argument("Gbdt::fit: label out of range");
  if (cfg.subsample <= 0.0 || cfg.subsample > 1.0)
    throw std::invalid_argument("Gbdt::fit: subsample must be in (0, 1]");

  k_ = num_classes;
  lr_ = cfg.learning_rate;
  trees_.clear();
  trees_.reserve(cfg.num_rounds * k_);

  // Quantize once per retrain: column build + boundary computation + bin
  // codes. Every round then reuses the codes; no per-node sorting remains.
  const std::size_t n = x.rows;
  const HistTrainSet ts(x, cfg.max_bins);
  Rng rng(cfg.seed);
  std::vector<double> scores(n * k_, 0.0);
  std::vector<double> probs(n * k_);
  std::vector<double> g(n), h(n);

  for (std::size_t round = 0; round < cfg.num_rounds; ++round) {
    probs = scores;
    softmax_rows(probs, n, k_);
    const std::vector<std::size_t> rows = round_subsample(n, cfg.subsample, rng);

    for (std::size_t cls = 0; cls < k_; ++cls) {
      // Gradients indexed by absolute row; fit_hist only touches `rows`.
      for (std::size_t i = 0; i < n; ++i) {
        const double p = probs[i * k_ + cls];
        const double target = (y[i] == cls) ? 1.0 : 0.0;
        g[i] = p - target;
        h[i] = std::max(p * (1.0 - p), 1e-6);
      }
      RegressionTree tree;
      tree.fit_hist(ts, rows, g, h, cfg.tree, rng);
      for (std::size_t i = 0; i < n; ++i)
        scores[i * k_ + cls] += cfg.learning_rate * tree.predict_row(x, i);
      trees_.push_back(std::move(tree));
    }
  }
}

std::vector<double> Gbdt::raw_scores(const std::vector<double>& features) const {
  if (trees_.empty()) throw std::logic_error("Gbdt: predict before fit");
  std::vector<double> scores(k_, 0.0);
  const std::size_t rounds = trees_.size() / k_;
  for (std::size_t round = 0; round < rounds; ++round)
    for (std::size_t cls = 0; cls < k_; ++cls)
      scores[cls] += lr_ * trees_[round * k_ + cls].predict(features);
  return scores;
}

std::vector<double> Gbdt::predict_proba(const std::vector<double>& features) const {
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

std::size_t Gbdt::predict(const std::vector<double>& features) const {
  const std::vector<double> scores = raw_scores(features);
  return static_cast<std::size_t>(
      std::distance(scores.begin(), std::max_element(scores.begin(), scores.end())));
}

std::vector<std::size_t> Gbdt::predict_batch(const FeatureMatrix& x) const {
  std::vector<std::size_t> out(x.rows);
  std::vector<double> feats(x.cols);
  for (std::size_t r = 0; r < x.rows; ++r) {
    for (std::size_t c = 0; c < x.cols; ++c) feats[c] = x.at(r, c);
    out[r] = predict(feats);
  }
  return out;
}

double Gbdt::accuracy(const FeatureMatrix& x, const std::vector<std::size_t>& y) const {
  if (y.size() != x.rows) throw std::invalid_argument("Gbdt::accuracy: size mismatch");
  const std::vector<std::size_t> pred = predict_batch(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (pred[i] == y[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(y.size());
}

}  // namespace crowdlearn::gbdt
