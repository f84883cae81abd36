#include <gtest/gtest.h>

#include <numeric>

#include "gbdt/hist.hpp"
#include "gbdt/tree.hpp"

namespace crowdlearn::gbdt {
namespace {

TEST(FeatureMatrix, FromRows) {
  const FeatureMatrix m = FeatureMatrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.rows, 2u);
  EXPECT_EQ(m.cols, 2u);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_THROW(FeatureMatrix::from_rows({}), std::invalid_argument);
  EXPECT_THROW(FeatureMatrix::from_rows({{1}, {1, 2}}), std::invalid_argument);
}

/// Every row of `ts`, in order: the row set of an unsubsampled fit.
std::vector<std::size_t> all_rows(const HistTrainSet& ts) {
  std::vector<std::size_t> rows(ts.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

TEST(RegressionTree, FitsStepFunction) {
  // Target: -1 for x < 0.5, +1 for x >= 0.5. With squared loss, grad = pred
  // - target = -target at pred 0, hess = 1; leaf value ~ mean target.
  std::vector<std::vector<double>> rows;
  std::vector<double> grad, hess;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform();
    rows.push_back({x});
    grad.push_back(x < 0.5 ? 1.0 : -1.0);  // grad = -target
    hess.push_back(1.0);
  }
  const HistTrainSet ts(FeatureMatrix::from_rows(rows), 64);
  RegressionTree tree;
  TreeConfig cfg;
  cfg.lambda = 0.0;
  tree.fit_hist(ts, all_rows(ts), grad, hess, cfg, rng);
  EXPECT_TRUE(tree.trained());
  EXPECT_NEAR(tree.predict({0.2}), -1.0, 0.1);
  EXPECT_NEAR(tree.predict({0.8}), 1.0, 0.1);
}

TEST(RegressionTree, LambdaShrinksLeaves) {
  const HistTrainSet ts(FeatureMatrix::from_rows({{0.0}, {0.1}, {0.9}, {1.0}}), 64);
  std::vector<double> grad{-1, -1, -1, -1};
  std::vector<double> hess{1, 1, 1, 1};
  Rng rng(2);
  RegressionTree no_reg, heavy_reg;
  TreeConfig cfg;
  cfg.lambda = 0.0;
  cfg.min_samples_leaf = 4;  // forces a single leaf
  no_reg.fit_hist(ts, all_rows(ts), grad, hess, cfg, rng);
  cfg.lambda = 4.0;
  heavy_reg.fit_hist(ts, all_rows(ts), grad, hess, cfg, rng);
  EXPECT_NEAR(no_reg.predict({0.5}), 1.0, 1e-9);   // -G/H = 4/4
  EXPECT_NEAR(heavy_reg.predict({0.5}), 0.5, 1e-9);  // 4/(4+4)
}

TEST(RegressionTree, RespectsMaxDepth) {
  Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<double> grad, hess;
  for (int i = 0; i < 64; ++i) {
    rows.push_back({static_cast<double>(i)});
    grad.push_back(rng.uniform(-1, 1));
    hess.push_back(1.0);
  }
  const HistTrainSet ts(FeatureMatrix::from_rows(rows), 64);  // one bin per value
  RegressionTree tree;
  TreeConfig cfg;
  cfg.max_depth = 2;
  cfg.min_samples_leaf = 1;
  cfg.min_gain = 0.0;
  tree.fit_hist(ts, all_rows(ts), grad, hess, cfg, rng);
  EXPECT_LE(tree.depth(), 2u);
}

TEST(RegressionTree, Validation) {
  RegressionTree tree;
  EXPECT_THROW(tree.predict({1.0}), std::logic_error);
  Rng rng(4);
  const HistTrainSet ts(FeatureMatrix::from_rows({{1.0}}), 8);
  EXPECT_THROW(tree.fit_hist(ts, {0}, {1.0, 2.0}, {1.0}, {}, rng), std::invalid_argument);
  EXPECT_THROW(tree.fit_hist(ts, {}, {1.0}, {1.0}, {}, rng), std::invalid_argument);
  EXPECT_THROW(tree.fit_hist(ts, {1}, {1.0}, {1.0}, {}, rng), std::invalid_argument);
}

TEST(DecisionTree, FitsAxisAlignedClasses) {
  Rng rng(5);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  for (int i = 0; i < 150; ++i) {
    const double a = rng.uniform(), b = rng.uniform();
    rows.push_back({a, b});
    y.push_back(a < 0.5 ? 0u : (b < 0.5 ? 1u : 2u));
  }
  std::vector<double> w(rows.size(), 1.0);
  DecisionTreeClassifier tree;
  TreeConfig cfg;
  cfg.max_depth = 3;
  cfg.min_samples_leaf = 2;
  tree.fit(FeatureMatrix::from_rows(rows), y, w, 3, cfg, rng);

  EXPECT_EQ(tree.predict({0.2, 0.9}), 0u);
  EXPECT_EQ(tree.predict({0.8, 0.2}), 1u);
  EXPECT_EQ(tree.predict({0.8, 0.8}), 2u);
}

TEST(DecisionTree, SampleWeightsShiftTheSplit) {
  // Two overlapping groups; with all the weight on class-1 samples the
  // majority leaf flips.
  std::vector<std::vector<double>> rows{{0.1}, {0.2}, {0.3}, {0.4}};
  std::vector<std::size_t> y{0, 0, 1, 1};
  Rng rng(6);
  TreeConfig cfg;
  cfg.max_depth = 0;  // single leaf: pure majority by weight

  DecisionTreeClassifier balanced;
  balanced.fit(FeatureMatrix::from_rows(rows), y, {1, 1, 1, 1}, 2, cfg, rng);
  DecisionTreeClassifier skewed;
  skewed.fit(FeatureMatrix::from_rows(rows), y, {0.1, 0.1, 5.0, 5.0}, 2, cfg, rng);
  EXPECT_EQ(skewed.predict({0.15}), 1u);
  const auto dist = skewed.predict_proba({0.15});
  EXPECT_GT(dist[1], 0.9);
}

TEST(DecisionTree, PureNodeStopsSplitting) {
  std::vector<std::vector<double>> rows{{0.1}, {0.5}, {0.9}};
  std::vector<std::size_t> y{1, 1, 1};
  std::vector<double> w{1, 1, 1};
  Rng rng(7);
  DecisionTreeClassifier tree;
  tree.fit(FeatureMatrix::from_rows(rows), y, w, 2, {}, rng);
  EXPECT_EQ(tree.predict({0.3}), 1u);
}

TEST(DecisionTree, Validation) {
  Rng rng(8);
  DecisionTreeClassifier tree;
  const FeatureMatrix x = FeatureMatrix::from_rows({{1.0}});
  EXPECT_THROW(tree.fit(x, {0}, {1.0}, 1, {}, rng), std::invalid_argument);  // k < 2
  EXPECT_THROW(tree.fit(x, {5}, {1.0}, 3, {}, rng), std::invalid_argument);  // bad label
  EXPECT_THROW(tree.predict({1.0}), std::logic_error);
}

// Column subsampling should still produce working trees.
class ColsampleTest : public ::testing::TestWithParam<double> {};

TEST_P(ColsampleTest, TreeStillFitsWithSubsampledFeatures) {
  Rng rng(17);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  for (int i = 0; i < 120; ++i) {
    // Both features carry the signal, so any subset suffices.
    const double v = rng.uniform();
    rows.push_back({v, v + rng.normal(0.0, 0.01)});
    y.push_back(v < 0.5 ? 0u : 1u);
  }
  std::vector<double> w(rows.size(), 1.0);
  TreeConfig cfg;
  cfg.colsample = GetParam();
  DecisionTreeClassifier tree;
  tree.fit(FeatureMatrix::from_rows(rows), y, w, 2, cfg, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (tree.predict(rows[i]) == y[i]) ++correct;
  EXPECT_GE(static_cast<double>(correct) / static_cast<double>(rows.size()), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Fractions, ColsampleTest, ::testing::Values(0.5, 1.0));

}  // namespace
}  // namespace crowdlearn::gbdt
