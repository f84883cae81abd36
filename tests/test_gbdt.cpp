#include <gtest/gtest.h>

#include <numeric>

#include "gbdt/gbdt.hpp"
#include "gbdt/hist.hpp"
#include "oracle/exact_gbdt.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::gbdt {
namespace {

/// Three linearly separable clusters in 2-D.
void make_data(std::vector<std::vector<double>>& rows, std::vector<std::size_t>& y,
               std::size_t per_class, Rng& rng) {
  const double centers[3][2] = {{0.0, 0.0}, {3.0, 0.0}, {0.0, 3.0}};
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      rows.push_back({centers[c][0] + rng.normal(0.0, 0.5),
                      centers[c][1] + rng.normal(0.0, 0.5)});
      y.push_back(c);
    }
  }
}

TEST(Gbdt, LearnsSeparableClusters) {
  Rng rng(1);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_data(rows, y, 60, rng);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  Gbdt model;
  GbdtConfig cfg;
  cfg.num_rounds = 30;
  model.fit(x, y, 3, cfg);
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.num_classes(), 3u);
  EXPECT_EQ(model.num_rounds(), 30u);
  EXPECT_GE(model.accuracy(x, y), 0.97);
}

TEST(Gbdt, PredictProbaIsDistribution) {
  Rng rng(2);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_data(rows, y, 30, rng);
  Gbdt model;
  GbdtConfig cfg;
  cfg.num_rounds = 10;
  model.fit(FeatureMatrix::from_rows(rows), y, 3, cfg);

  const auto p = model.predict_proba({1.0, 1.0});
  EXPECT_EQ(p.size(), 3u);
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-9);
  for (double v : p) EXPECT_GT(v, 0.0);
}

TEST(Gbdt, ConfidentNearClusterCenters) {
  Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_data(rows, y, 60, rng);
  Gbdt model;
  GbdtConfig cfg;
  cfg.num_rounds = 40;
  model.fit(FeatureMatrix::from_rows(rows), y, 3, cfg);
  EXPECT_GT(model.predict_proba({0.0, 0.0})[0], 0.8);
  EXPECT_GT(model.predict_proba({3.0, 0.0})[1], 0.8);
  EXPECT_GT(model.predict_proba({0.0, 3.0})[2], 0.8);
}

TEST(Gbdt, MoreRoundsReduceTrainingError) {
  Rng rng(4);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  // Noisier data so a few rounds underfit.
  const double centers[3][2] = {{0.0, 0.0}, {1.5, 0.0}, {0.0, 1.5}};
  for (std::size_t c = 0; c < 3; ++c)
    for (int i = 0; i < 50; ++i) {
      rows.push_back({centers[c][0] + rng.normal(0.0, 0.6),
                      centers[c][1] + rng.normal(0.0, 0.6)});
      y.push_back(c);
    }
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  GbdtConfig small, big;
  small.num_rounds = 2;
  big.num_rounds = 40;
  Gbdt m_small, m_big;
  m_small.fit(x, y, 3, small);
  m_big.fit(x, y, 3, big);
  EXPECT_GT(m_big.accuracy(x, y), m_small.accuracy(x, y));
}

TEST(Gbdt, DeterministicGivenSeed) {
  Rng rng(5);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_data(rows, y, 30, rng);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);
  GbdtConfig cfg;
  cfg.num_rounds = 8;
  Gbdt a, b;
  a.fit(x, y, 3, cfg);
  b.fit(x, y, 3, cfg);
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> q{rng.uniform(-1, 4), rng.uniform(-1, 4)};
    EXPECT_EQ(a.predict(q), b.predict(q));
  }
}

TEST(Gbdt, Validation) {
  Gbdt model;
  EXPECT_THROW(model.predict({1.0}), std::logic_error);
  const FeatureMatrix x = FeatureMatrix::from_rows({{1.0}, {2.0}});
  GbdtConfig cfg;
  EXPECT_THROW(model.fit(x, {0}, 2, cfg), std::invalid_argument);       // size mismatch
  EXPECT_THROW(model.fit(x, {0, 5}, 3, cfg), std::invalid_argument);    // label range
  EXPECT_THROW(model.fit(x, {0, 1}, 1, cfg), std::invalid_argument);    // k < 2
  cfg.subsample = 0.0;
  EXPECT_THROW(model.fit(x, {0, 1}, 2, cfg), std::invalid_argument);
}

TEST(Gbdt, ParallelFitIsByteIdenticalToSerial) {
  Rng rng(7);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_data(rows, y, 50, rng);
  // Pad with extra correlated features so the split search has real fan-out.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].push_back(rows[i][0] + rows[i][1]);
    rows[i].push_back(rows[i][0] * 0.5 + rng.normal(0.0, 0.1));
    rows[i].push_back(rng.uniform(-1.0, 1.0));
  }
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  GbdtConfig serial_cfg;
  serial_cfg.num_rounds = 15;
  GbdtConfig parallel_cfg = serial_cfg;
  util::ThreadPool pool(4);
  parallel_cfg.tree.pool = &pool;

  Gbdt serial_model, parallel_model;
  serial_model.fit(x, y, 3, serial_cfg);
  parallel_model.fit(x, y, 3, parallel_cfg);

  for (int i = 0; i < 25; ++i) {
    std::vector<double> q(x.cols);
    for (double& v : q) v = rng.uniform(-1.0, 4.0);
    // Exact comparison: the parallel split search must pick the same split
    // (same feature, same threshold, same bits) at every node.
    EXPECT_EQ(serial_model.predict_proba(q), parallel_model.predict_proba(q));
  }
}

TEST(Gbdt, ParallelFitWithColumnSubsamplingMatchesSerial) {
  Rng rng(8);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_data(rows, y, 40, rng);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].push_back(rng.uniform(-1.0, 1.0));
    rows[i].push_back(rng.uniform(-1.0, 1.0));
  }
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  GbdtConfig serial_cfg;
  serial_cfg.num_rounds = 10;
  serial_cfg.tree.colsample = 0.5;  // the subset draw happens before dispatch
  GbdtConfig parallel_cfg = serial_cfg;
  util::ThreadPool pool(3);
  parallel_cfg.tree.pool = &pool;

  Gbdt serial_model, parallel_model;
  serial_model.fit(x, y, 3, serial_cfg);
  parallel_model.fit(x, y, 3, parallel_cfg);
  for (int i = 0; i < 25; ++i) {
    std::vector<double> q(x.cols);
    for (double& v : q) v = rng.uniform(-1.0, 4.0);
    EXPECT_EQ(serial_model.predict_proba(q), parallel_model.predict_proba(q));
  }
}

TEST(RegressionTreeSplit, EqualGainTieBreaksToLowestFeatureAtAnyThreadCount) {
  // Columns 1 and 2 are exact duplicates of column 0, so every candidate
  // split has an exactly equal gain on all three features. The deterministic
  // tie-break must pick feature 0 everywhere, serial or parallel, on the
  // histogram engine and on the exact-engine oracle.
  Rng rng(9);
  std::vector<std::vector<double>> rows;
  std::vector<double> grad, hess;
  for (int i = 0; i < 64; ++i) {
    const double v = rng.uniform(-2.0, 2.0);
    rows.push_back({v, v, v});
    grad.push_back(v > 0.0 ? 1.0 + rng.normal(0.0, 0.05) : -1.0 + rng.normal(0.0, 0.05));
    hess.push_back(1.0);
  }
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);
  const HistTrainSet ts(x, 32);
  std::vector<std::size_t> all_rows(x.rows);
  std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
  TreeConfig cfg;
  cfg.max_depth = 3;

  RegressionTree serial_tree;
  serial_tree.fit_hist(ts, all_rows, grad, hess, cfg, rng);
  oracle::ExactRegressionTree serial_exact;
  serial_exact.fit(x, grad, hess, cfg, rng);
  ASSERT_FALSE(serial_tree.split_features().empty());
  ASSERT_FALSE(serial_exact.split_features().empty());
  for (std::size_t f : serial_tree.split_features()) EXPECT_EQ(f, 0u);
  for (std::size_t f : serial_exact.split_features()) EXPECT_EQ(f, 0u);

  util::ThreadPool pool(4);
  cfg.pool = &pool;
  RegressionTree parallel_tree;
  parallel_tree.fit_hist(ts, all_rows, grad, hess, cfg, rng);
  EXPECT_EQ(parallel_tree.split_features(), serial_tree.split_features());
  EXPECT_EQ(parallel_tree.num_nodes(), serial_tree.num_nodes());
  oracle::ExactRegressionTree parallel_exact;
  parallel_exact.fit(x, grad, hess, cfg, rng);
  EXPECT_EQ(parallel_exact.split_features(), serial_exact.split_features());
  EXPECT_EQ(parallel_exact.num_nodes(), serial_exact.num_nodes());
}

TEST(RegressionTreeSplit, TwoFeatureGainTiePicksDocumentedWinnerOnBothEngines) {
  // Feature 1 is an exact duplicate of feature 0, so at every node both
  // features offer the same best gain. The documented order — higher gain,
  // then LOWER FEATURE INDEX, then lower threshold — makes feature 0 the
  // only legal winner, and both the histogram engine and the exact-engine
  // oracle must honor it.
  Rng rng(12);
  std::vector<std::vector<double>> rows;
  std::vector<double> grad, hess;
  for (int i = 0; i < 48; ++i) {
    const double v = rng.uniform(-2.0, 2.0);
    rows.push_back({v, v});
    grad.push_back(v > 0.0 ? 1.0 + rng.normal(0.0, 0.05) : -1.0 + rng.normal(0.0, 0.05));
    hess.push_back(1.0);
  }
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);
  TreeConfig cfg;
  cfg.max_depth = 3;
  Rng fit_rng(1);

  oracle::ExactRegressionTree exact_tree;
  exact_tree.fit(x, grad, hess, cfg, fit_rng);
  ASSERT_FALSE(exact_tree.split_features().empty());
  for (std::size_t f : exact_tree.split_features()) EXPECT_EQ(f, 0u);

  const HistTrainSet ts(x, 64);  // 48 distinct values < 64 bins: exact regime
  std::vector<std::size_t> all_rows(x.rows);
  std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
  RegressionTree hist_tree;
  hist_tree.fit_hist(ts, all_rows, grad, hess, cfg, fit_rng);
  ASSERT_FALSE(hist_tree.split_features().empty());
  for (std::size_t f : hist_tree.split_features()) EXPECT_EQ(f, 0u);

  // Same exact-gain tie, same winner, same structure: in the exact-bins
  // regime the two engines resolve the tie to the identical tree.
  EXPECT_EQ(hist_tree.split_features(), exact_tree.split_features());
  EXPECT_EQ(hist_tree.num_nodes(), exact_tree.num_nodes());
}

TEST(DecisionTreeSplit, ParallelFitMatchesSerialIncludingTies) {
  Rng rng(10);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  std::vector<double> w;
  for (int i = 0; i < 90; ++i) {
    const double v = rng.uniform(-2.0, 2.0);
    rows.push_back({v, v, rng.uniform(-2.0, 2.0)});  // f1 duplicates f0
    y.push_back(v > 0.0 ? 1u : 0u);
    w.push_back(1.0);
  }
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);
  TreeConfig cfg;
  cfg.max_depth = 4;

  DecisionTreeClassifier serial_tree;
  serial_tree.fit(x, y, w, 2, cfg, rng);
  ASSERT_FALSE(serial_tree.split_features().empty());
  // Wherever the duplicated pair wins, the lower index must be chosen.
  for (std::size_t f : serial_tree.split_features()) EXPECT_NE(f, 1u);

  util::ThreadPool pool(4);
  cfg.pool = &pool;
  DecisionTreeClassifier parallel_tree;
  parallel_tree.fit(x, y, w, 2, cfg, rng);
  EXPECT_EQ(parallel_tree.split_features(), serial_tree.split_features());
  for (int i = 0; i < 25; ++i) {
    const std::vector<double> q{rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)};
    EXPECT_EQ(serial_tree.predict_proba(q), parallel_tree.predict_proba(q));
  }
}

class GbdtSubsampleTest : public ::testing::TestWithParam<double> {};

TEST_P(GbdtSubsampleTest, StillLearnsWithRowSubsampling) {
  Rng rng(6);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_data(rows, y, 60, rng);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);
  GbdtConfig cfg;
  cfg.num_rounds = 30;
  cfg.subsample = GetParam();
  Gbdt model;
  model.fit(x, y, 3, cfg);
  EXPECT_GE(model.accuracy(x, y), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Fractions, GbdtSubsampleTest, ::testing::Values(0.5, 0.8, 1.0));

}  // namespace
}  // namespace crowdlearn::gbdt
