// Differential and property tests for the histogram split engine
// (gbdt/hist.hpp, docs/GBDT.md). The exact-engine oracle
// (tests/oracle/exact_gbdt.hpp) is the reference: when a feature has no more
// distinct values than max_bins the quantization is lossless and the two
// engines must agree; on truly continuous features they may diverge
// tree-by-tree but must reach the same accuracy. Thread invariance and
// retrain determinism are exact (byte-level) requirements.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "ckpt/io.hpp"
#include "gbdt/gbdt.hpp"
#include "gbdt/hist.hpp"
#include "oracle/exact_gbdt.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::gbdt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Three separable clusters on a coarse value grid: every feature takes at
/// most `levels` distinct values, so max_bins >= levels makes binning exact.
void make_grid_data(std::vector<std::vector<double>>& rows, std::vector<std::size_t>& y,
                    std::size_t per_class, std::size_t levels, Rng& rng) {
  const double centers[3][2] = {{0.0, 0.0}, {3.0, 0.0}, {0.0, 3.0}};
  const double step = 6.0 / static_cast<double>(levels);
  auto snap = [&](double v) {
    double q = std::round(v / step) * step;
    return std::min(std::max(q, -3.0), 3.0);
  };
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t i = 0; i < per_class; ++i) {
      rows.push_back({snap(centers[c][0] + rng.normal(0.0, 0.5)),
                      snap(centers[c][1] + rng.normal(0.0, 0.5))});
      y.push_back(c);
    }
}

/// Continuous (all-distinct) version of the same clusters.
void make_continuous_data(std::vector<std::vector<double>>& rows,
                          std::vector<std::size_t>& y, std::size_t per_class, Rng& rng) {
  const double centers[3][2] = {{0.0, 0.0}, {3.0, 0.0}, {0.0, 3.0}};
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t i = 0; i < per_class; ++i) {
      rows.push_back({centers[c][0] + rng.normal(0.0, 0.5),
                      centers[c][1] + rng.normal(0.0, 0.5)});
      y.push_back(c);
    }
}

GbdtConfig bins_cfg(std::size_t max_bins) {
  GbdtConfig cfg;
  cfg.max_bins = max_bins;
  return cfg;
}

// ---------------------------------------------------------------------------
// Differential: histogram vs exact
// ---------------------------------------------------------------------------

TEST(HistVsExact, IdenticalPredictionsWhenBinsAreExact) {
  // <= max_bins distinct values per feature and subsample = 1.0: every
  // histogram cut is the midpoint between adjacent distinct values — the
  // exact engine's threshold, bit for bit — and both engines sum gradients
  // over the same row order, so the fitted forests must be identical.
  Rng rng(11);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_grid_data(rows, y, 60, 24, rng);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  GbdtConfig exact_cfg;
  GbdtConfig hist_cfg = bins_cfg(64);
  exact_cfg.subsample = hist_cfg.subsample = 1.0;
  exact_cfg.num_rounds = hist_cfg.num_rounds = 20;

  oracle::ExactGbdt exact_model;
  Gbdt hist_model;
  exact_model.fit(x, y, 3, exact_cfg);
  hist_model.fit(x, y, 3, hist_cfg);

  for (std::size_t r = 0; r < x.rows; ++r) {
    std::vector<double> q(x.cols);
    for (std::size_t c = 0; c < x.cols; ++c) q[c] = x.at(r, c);
    EXPECT_EQ(exact_model.predict_proba(q), hist_model.predict_proba(q));
  }
  // Identical trees agree off the training grid too.
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> q{rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5)};
    EXPECT_EQ(exact_model.predict_proba(q), hist_model.predict_proba(q));
  }
}

TEST(HistVsExact, RowSubsamplingKeepsEnginesEquallyAccurate) {
  // With subsample < 1 exactness is deliberately NOT claimed, even in the
  // exact-bins regime: the exact engine places thresholds at midpoints of
  // the round's SUBSAMPLE, the histogram engine at midpoints of the full
  // training set, and out-of-subsample rows can fall between the two
  // (docs/GBDT.md). Both engines still share the subsample draw — the RNG
  // stream position is engine-independent — and must learn equally well.
  Rng rng(12);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_grid_data(rows, y, 60, 20, rng);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  GbdtConfig exact_cfg;
  GbdtConfig hist_cfg = bins_cfg(64);
  exact_cfg.subsample = hist_cfg.subsample = 0.9;
  exact_cfg.num_rounds = hist_cfg.num_rounds = 15;

  oracle::ExactGbdt exact_model;
  Gbdt hist_model;
  exact_model.fit(x, y, 3, exact_cfg);
  hist_model.fit(x, y, 3, hist_cfg);
  EXPECT_GE(exact_model.accuracy(x, y), 0.95);
  EXPECT_GE(hist_model.accuracy(x, y), 0.95);
  EXPECT_NEAR(exact_model.accuracy(x, y), hist_model.accuracy(x, y), 0.03);
}

TEST(HistVsExact, BoundedDivergenceAndSameAccuracyOnContinuousFeatures) {
  // 360 all-distinct values against 16 bins: quantization is lossy, so the
  // forests may differ — but the decision quality must not.
  Rng rng(13);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_continuous_data(rows, y, 120, rng);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  GbdtConfig exact_cfg;
  GbdtConfig hist_cfg = bins_cfg(16);
  exact_cfg.num_rounds = hist_cfg.num_rounds = 30;

  oracle::ExactGbdt exact_model;
  Gbdt hist_model;
  exact_model.fit(x, y, 3, exact_cfg);
  hist_model.fit(x, y, 3, hist_cfg);

  const double acc_exact = exact_model.accuracy(x, y);
  const double acc_hist = hist_model.accuracy(x, y);
  EXPECT_GE(acc_exact, 0.95);
  EXPECT_GE(acc_hist, 0.95);
  EXPECT_NEAR(acc_exact, acc_hist, 0.03);

  // Probability estimates stay close on average even where trees differ.
  double total_abs_diff = 0.0;
  for (std::size_t r = 0; r < x.rows; ++r) {
    std::vector<double> q(x.cols);
    for (std::size_t c = 0; c < x.cols; ++c) q[c] = x.at(r, c);
    const auto pe = exact_model.predict_proba(q);
    const auto ph = hist_model.predict_proba(q);
    for (std::size_t k = 0; k < pe.size(); ++k) total_abs_diff += std::abs(pe[k] - ph[k]);
  }
  EXPECT_LT(total_abs_diff / static_cast<double>(x.rows), 0.10);
}

// ---------------------------------------------------------------------------
// Thread invariance and determinism
// ---------------------------------------------------------------------------

class HistThreadsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HistThreadsTest, FitIsByteIdenticalToSerialReference) {
  Rng rng(14);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_continuous_data(rows, y, 50, rng);
  // Extra features (one duplicated) so the parallel split search has real
  // fan-out and at least one exact cross-feature gain tie.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].push_back(rows[i][0]);
    rows[i].push_back(rows[i][0] + rows[i][1]);
    rows[i].push_back(rng.uniform(-1.0, 1.0));
  }
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  GbdtConfig serial_cfg = bins_cfg(32);
  serial_cfg.num_rounds = 12;
  serial_cfg.tree.colsample = 0.8;  // exercise the pre-dispatch RNG draw
  Gbdt serial_model;
  serial_model.fit(x, y, 3, serial_cfg);

  util::ThreadPool pool(GetParam());
  GbdtConfig pool_cfg = serial_cfg;
  pool_cfg.tree.pool = &pool;
  Gbdt pool_model;
  pool_model.fit(x, y, 3, pool_cfg);

  for (int i = 0; i < 25; ++i) {
    std::vector<double> q(x.cols);
    for (double& v : q) v = rng.uniform(-2.0, 4.0);
    EXPECT_EQ(serial_model.predict_proba(q), pool_model.predict_proba(q));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, HistThreadsTest, ::testing::Values(1u, 2u, 8u));

TEST(HistEngine, RepeatedRetrainsAreByteIdentical) {
  Rng rng(15);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_continuous_data(rows, y, 40, rng);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);
  GbdtConfig cfg = bins_cfg(24);
  cfg.num_rounds = 10;

  Gbdt a, b;
  a.fit(x, y, 3, cfg);
  b.fit(x, y, 3, cfg);
  b.fit(x, y, 3, cfg);  // refitting the same model must fully reset state
  EXPECT_EQ(a.state_payload(), b.state_payload());
  for (int i = 0; i < 25; ++i) {
    const std::vector<double> q{rng.uniform(-1, 4), rng.uniform(-1, 4)};
    EXPECT_EQ(a.predict_proba(q), b.predict_proba(q));
  }
}

// ---------------------------------------------------------------------------
// ColumnMatrix properties (random + fuzz)
// ---------------------------------------------------------------------------

/// Random matrix with injected NaNs and exact zeros.
FeatureMatrix fuzz_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  FeatureMatrix x;
  x.rows = rows;
  x.cols = cols;
  x.values.resize(rows * cols);
  for (double& v : x.values) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.1) v = kNaN;
    else if (u < 0.3) v = 0.0;
    else if (u < 0.5) v = std::round(rng.uniform(-3.0, 3.0));  // force duplicates
    else v = rng.uniform(-10.0, 10.0);
  }
  return x;
}

TEST(ColumnMatrix, RoundTripsRowAccessExactly) {
  Rng rng(16);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t rows = 1 + rng.index(40);
    const std::size_t cols = 1 + rng.index(6);
    const FeatureMatrix x = fuzz_matrix(rows, cols, rng);
    for (bool skip_zeros : {false, true}) {
      const ColumnMatrix cm = ColumnMatrix::build(x, skip_zeros);
      ASSERT_EQ(cm.rows(), rows);
      ASSERT_EQ(cm.cols(), cols);
      for (std::size_t f = 0; f < cols; ++f) {
        // Reconstruct the dense column: explicit entries, recorded missing
        // rows, and (under zero skip) the remaining rows as exact zeros.
        std::vector<double> dense(rows, 0.0);
        std::vector<bool> set(rows, false);
        for (const ColumnMatrix::Entry& e : cm.column(f)) {
          ASSERT_FALSE(set[e.row]);  // each row appears at most once
          dense[e.row] = e.value;
          set[e.row] = true;
        }
        for (std::uint32_t r : cm.missing_rows(f)) {
          ASSERT_FALSE(set[r]);
          dense[r] = kNaN;
          set[r] = true;
        }
        std::size_t implicit_zeros = 0;
        for (std::size_t r = 0; r < rows; ++r)
          if (!set[r]) ++implicit_zeros;
        EXPECT_EQ(implicit_zeros, cm.zero_count(f));
        if (!skip_zeros) {
          EXPECT_EQ(cm.zero_count(f), 0u);
        }
        for (std::size_t r = 0; r < rows; ++r) {
          const double expected = x.at(r, f);
          if (std::isnan(expected)) EXPECT_TRUE(std::isnan(dense[r]));
          else EXPECT_EQ(expected, dense[r]);
        }
      }
    }
  }
}

TEST(ColumnMatrix, ColumnsAreSortedByValueThenRow) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const FeatureMatrix x = fuzz_matrix(1 + rng.index(60), 1 + rng.index(4), rng);
    const ColumnMatrix cm = ColumnMatrix::build(x, trial % 2 == 0);
    for (std::size_t f = 0; f < cm.cols(); ++f) {
      const auto& col = cm.column(f);
      for (std::size_t i = 0; i + 1 < col.size(); ++i) {
        ASSERT_TRUE(col[i].value < col[i + 1].value ||
                    (col[i].value == col[i + 1].value && col[i].row < col[i + 1].row));
      }
    }
  }
}

TEST(ColumnMatrix, RejectsEmptyInput) {
  FeatureMatrix x;
  EXPECT_THROW(ColumnMatrix::build(x), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BinBoundaries properties (random + fuzz)
// ---------------------------------------------------------------------------

TEST(BinBoundaries, MonotoneCutsAndEverySampleInExactlyOneBin) {
  Rng rng(18);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t max_bins = 2 + rng.index(30);
    const FeatureMatrix x = fuzz_matrix(1 + rng.index(80), 1 + rng.index(4), rng);
    const ColumnMatrix cm = ColumnMatrix::build(x);
    const BinBoundaries bounds = BinBoundaries::compute(cm, max_bins);
    ASSERT_EQ(bounds.cols(), x.cols);
    for (std::size_t f = 0; f < x.cols; ++f) {
      const std::vector<double>& cuts = bounds.cuts(f);
      EXPECT_LE(bounds.num_bins(f), max_bins);
      for (std::size_t b = 0; b + 1 < cuts.size(); ++b)
        ASSERT_LT(cuts[b], cuts[b + 1]);  // strictly monotone
      for (std::size_t r = 0; r < x.rows; ++r) {
        const double v = x.at(r, f);
        if (std::isnan(v)) continue;  // missing is HistTrainSet's job
        const std::uint16_t b = bounds.bin_of(f, v);
        ASSERT_LT(b, bounds.num_bins(f));
        // Exactly-one-bin invariant: v lies strictly above the previous cut
        // and at-or-below its own; both neighbours would reject it.
        if (b > 0) {
          ASSERT_GT(v, cuts[b - 1]);
        }
        if (b < cuts.size()) {
          ASSERT_LE(v, cuts[b]);
        }
      }
    }
  }
}

TEST(BinBoundaries, ZeroSkipDoesNotChangeBoundaries) {
  Rng rng(19);
  for (int trial = 0; trial < 15; ++trial) {
    const FeatureMatrix x = fuzz_matrix(1 + rng.index(60), 1 + rng.index(4), rng);
    const BinBoundaries dense_bounds =
        BinBoundaries::compute(ColumnMatrix::build(x, false), 16);
    const BinBoundaries sparse_bounds =
        BinBoundaries::compute(ColumnMatrix::build(x, true), 16);
    EXPECT_TRUE(dense_bounds == sparse_bounds);
  }
}

TEST(BinBoundaries, ExactRegimeCutsAreMidpointsOfAdjacentDistinctValues) {
  const FeatureMatrix x = FeatureMatrix::from_rows({{1.0}, {2.0}, {2.0}, {4.0}});
  const BinBoundaries bounds = BinBoundaries::compute(ColumnMatrix::build(x), 8);
  ASSERT_EQ(bounds.num_bins(0), 3u);
  EXPECT_EQ(bounds.cut(0, 0), 1.5);
  EXPECT_EQ(bounds.cut(0, 1), 3.0);
}

TEST(BinBoundaries, DegenerateColumnsYieldSingleBinAndDoNotCrash) {
  // All-constant, all-missing, and single-row columns: no cuts, one bin.
  const FeatureMatrix x = FeatureMatrix::from_rows({{7.0, kNaN}, {7.0, kNaN}, {7.0, kNaN}});
  const ColumnMatrix cm = ColumnMatrix::build(x);
  EXPECT_EQ(cm.missing_count(1), 3u);
  EXPECT_TRUE(cm.column(1).empty());
  const BinBoundaries bounds = BinBoundaries::compute(cm, 16);
  EXPECT_EQ(bounds.num_bins(0), 1u);
  EXPECT_EQ(bounds.num_bins(1), 1u);

  const FeatureMatrix single = FeatureMatrix::from_rows({{1.0, 2.0}});
  const BinBoundaries single_bounds =
      BinBoundaries::compute(ColumnMatrix::build(single), 16);
  EXPECT_EQ(single_bounds.num_bins(0), 1u);
  EXPECT_EQ(single_bounds.num_bins(1), 1u);
}

TEST(BinBoundaries, RejectsTooFewBins) {
  const FeatureMatrix x = FeatureMatrix::from_rows({{1.0}, {2.0}});
  EXPECT_THROW(BinBoundaries::compute(ColumnMatrix::build(x), 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// HistTrainSet and degenerate fits
// ---------------------------------------------------------------------------

TEST(HistTrainSet, CodesMatchBinOfAndMissingGetsReservedCode) {
  Rng rng(20);
  for (int trial = 0; trial < 15; ++trial) {
    const FeatureMatrix x = fuzz_matrix(1 + rng.index(50), 1 + rng.index(4), rng);
    const HistTrainSet ts(x, 16);
    for (std::size_t f = 0; f < x.cols; ++f)
      for (std::size_t r = 0; r < x.rows; ++r) {
        const double v = x.at(r, f);
        if (std::isnan(v)) EXPECT_EQ(ts.code(r, f), HistTrainSet::kMissingCode);
        else EXPECT_EQ(ts.code(r, f), ts.bounds().bin_of(f, v));
      }
  }
}

TEST(HistTrainSet, RejectsReservedMaxBins) {
  const FeatureMatrix x = FeatureMatrix::from_rows({{1.0}, {2.0}});
  EXPECT_THROW(HistTrainSet(x, 1), std::invalid_argument);
  EXPECT_THROW(HistTrainSet(x, 0xFFFF), std::invalid_argument);
}

TEST(HistEngine, ConstantAndAllMissingFeaturesProduceLeafOnlyTrees) {
  const FeatureMatrix x =
      FeatureMatrix::from_rows({{5.0, kNaN}, {5.0, kNaN}, {5.0, kNaN}, {5.0, kNaN},
                                {5.0, kNaN}, {5.0, kNaN}, {5.0, kNaN}, {5.0, kNaN}});
  const HistTrainSet ts(x, 8);
  std::vector<std::size_t> rows(x.rows);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  const std::vector<double> grad{1, -1, 1, -1, 1, -1, 1, -1};
  const std::vector<double> hess(x.rows, 1.0);
  TreeConfig cfg;
  Rng rng(21);
  RegressionTree tree;
  tree.fit_hist(ts, rows, grad, hess, cfg, rng);
  EXPECT_EQ(tree.num_nodes(), 1u);  // nothing to split on
  EXPECT_TRUE(tree.split_features().empty());
}

TEST(HistEngine, SingleRowFitIsALeaf) {
  const FeatureMatrix x = FeatureMatrix::from_rows({{1.0, 2.0}});
  const HistTrainSet ts(x, 8);
  TreeConfig cfg;
  Rng rng(22);
  RegressionTree tree;
  std::vector<std::size_t> rows{0};
  tree.fit_hist(ts, rows, {0.5}, {1.0}, cfg, rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(HistEngine, MissingValuesRouteRightAndTrainingDoesNotCrash) {
  // Feature 0 separates the classes but is missing for a slice of rows;
  // those rows must consistently route right during training and prediction.
  Rng rng(23);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  for (int i = 0; i < 120; ++i) {
    const double v = rng.uniform(-2.0, 2.0);
    const bool missing = (i % 5 == 0);
    rows.push_back({missing ? kNaN : v, rng.uniform(-1.0, 1.0)});
    y.push_back(v > 0.0 ? 1u : 0u);
  }
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);
  GbdtConfig cfg = bins_cfg(32);
  cfg.num_rounds = 10;
  Gbdt model;
  model.fit(x, y, 2, cfg);
  EXPECT_GT(model.accuracy(x, y), 0.7);
  const auto p = model.predict_proba({kNaN, 0.0});
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(HistEngine, EngineAndBoundariesSurviveSerializationRoundTrip) {
  // The GBT3 section keeps only what prediction reads (class count,
  // shrinkage, trees); the boundaries are rebuilt by the next fit. What is
  // kept must survive bit-exactly and re-serialize to the same bytes.
  Rng rng(24);
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  make_continuous_data(rows, y, 40, rng);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);
  GbdtConfig cfg = bins_cfg(24);
  cfg.num_rounds = 8;
  Gbdt model;
  model.fit(x, y, 3, cfg);

  ckpt::Writer w;
  model.save_state(w);
  const std::string payload = w.payload();

  Gbdt restored;
  ckpt::Reader r(payload);
  restored.load_state(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.num_classes(), 3u);
  EXPECT_EQ(restored.num_rounds(), 8u);
  for (int i = 0; i < 25; ++i) {
    const std::vector<double> q{rng.uniform(-1, 4), rng.uniform(-1, 4)};
    EXPECT_EQ(model.predict_proba(q), restored.predict_proba(q));
  }

  ckpt::Writer w2;
  restored.save_state(w2);
  EXPECT_EQ(w2.payload(), payload);  // byte-identical re-serialization
}

}  // namespace
}  // namespace crowdlearn::gbdt
