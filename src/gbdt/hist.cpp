#include "gbdt/hist.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "gbdt/split.hpp"

namespace crowdlearn::gbdt {

// ---------------------------------------------------------------------------
// ColumnMatrix
// ---------------------------------------------------------------------------

ColumnMatrix ColumnMatrix::build(const FeatureMatrix& x, bool skip_zeros) {
  if (x.rows == 0 || x.cols == 0)
    throw std::invalid_argument("ColumnMatrix::build: empty matrix");
  if (x.rows > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("ColumnMatrix::build: row count exceeds 32-bit index");
  ColumnMatrix cm;
  cm.rows_ = x.rows;
  cm.skip_zeros_ = skip_zeros;
  cm.columns_.resize(x.cols);
  cm.missing_rows_.resize(x.cols);
  cm.zero_counts_.assign(x.cols, 0);
  for (std::size_t f = 0; f < x.cols; ++f) {
    std::vector<Entry>& col = cm.columns_[f];
    col.reserve(x.rows);
    for (std::size_t r = 0; r < x.rows; ++r) {
      const double v = x.at(r, f);
      if (std::isnan(v)) {
        cm.missing_rows_[f].push_back(static_cast<std::uint32_t>(r));
      } else if (skip_zeros && v == 0.0) {
        ++cm.zero_counts_[f];
      } else {
        col.push_back(Entry{static_cast<std::uint32_t>(r), v});
      }
    }
    // (value, row) order: deterministic regardless of the (unstable) sort's
    // handling of equal values.
    std::sort(col.begin(), col.end(), [](const Entry& a, const Entry& b) {
      if (a.value != b.value) return a.value < b.value;
      return a.row < b.row;
    });
  }
  return cm;
}

// ---------------------------------------------------------------------------
// BinBoundaries
// ---------------------------------------------------------------------------

BinBoundaries BinBoundaries::compute(const ColumnMatrix& cm, std::size_t max_bins) {
  if (max_bins < 2)
    throw std::invalid_argument("BinBoundaries::compute: max_bins must be >= 2");
  BinBoundaries out;
  out.cuts_.resize(cm.cols());
  for (std::size_t f = 0; f < cm.cols(); ++f) {
    // Distinct values with multiplicities, ascending. The sorted column makes
    // this a single pass; a skipped-zero block is spliced back in at its
    // sorted position so zero skip never changes the boundaries.
    std::vector<std::pair<double, std::size_t>> distinct;
    const std::vector<ColumnMatrix::Entry>& col = cm.column(f);
    std::size_t zeros = cm.zero_count(f);
    std::size_t i = 0;
    while (i < col.size()) {
      const double v = col[i].value;
      std::size_t j = i;
      while (j < col.size() && col[j].value == v) ++j;
      if (zeros > 0 && v > 0.0) {
        distinct.emplace_back(0.0, zeros);
        zeros = 0;
      }
      distinct.emplace_back(v, j - i);
      i = j;
    }
    if (zeros > 0) distinct.emplace_back(0.0, zeros);

    std::vector<double>& cuts = out.cuts_[f];
    const std::size_t m = distinct.size();
    if (m <= 1) continue;  // constant, all-missing, or single-row column: one bin

    auto push_cut = [&](std::size_t k) {
      const double cut = 0.5 * (distinct[k].first + distinct[k + 1].first);
      // Guard degenerate midpoints (adjacent representable doubles, infinite
      // sums): a cut must stay finite and strictly increasing, else it could
      // not separate anything the previous cut does not already separate.
      if (!std::isfinite(cut)) return;
      if (!cuts.empty() && !(cuts.back() < cut)) return;
      cuts.push_back(cut);
    };

    if (m <= max_bins) {
      // Exact binning: every distinct value gets its own bin, cuts at the
      // midpoints between adjacent distinct values. This is the regime where
      // the histogram engine provably matches the exact-engine oracle
      // (docs/GBDT.md, tests/test_gbdt_hist.cpp).
      for (std::size_t k = 0; k + 1 < m; ++k) push_cut(k);
    } else {
      // Rank-based thinning to at most max_bins bins: place the b-th cut at
      // the first distinct-value boundary whose cumulative count reaches
      // b * total / max_bins. Pure integer arithmetic over training counts —
      // deterministic, and independent of any later parallel work.
      std::size_t total = 0;
      for (const auto& d : distinct) total += d.second;
      std::size_t cum = 0, next = 1;
      for (std::size_t k = 0; k + 1 < m && next < max_bins; ++k) {
        cum += distinct[k].second;
        if (cum * max_bins >= next * total) {
          push_cut(k);
          while (next < max_bins && cum * max_bins >= next * total) ++next;
        }
      }
    }
  }
  return out;
}

std::uint16_t BinBoundaries::bin_of(std::size_t f, double v) const {
  const std::vector<double>& cuts = cuts_[f];
  // First cut >= v: v lands in that cut's bin (bin b holds v <= cut[b]).
  const auto it = std::lower_bound(cuts.begin(), cuts.end(), v);
  return static_cast<std::uint16_t>(it - cuts.begin());
}

// ---------------------------------------------------------------------------
// HistTrainSet
// ---------------------------------------------------------------------------

HistTrainSet::HistTrainSet(const FeatureMatrix& x, std::size_t max_bins) {
  if (max_bins < 2 || max_bins >= kMissingCode)
    throw std::invalid_argument("HistTrainSet: max_bins must be in [2, 65534]");
  const ColumnMatrix cm = ColumnMatrix::build(x);
  bounds_ = BinBoundaries::compute(cm, max_bins);
  rows_ = x.rows;
  cols_ = x.cols;
  codes_.assign(cols_ * rows_, 0);
  for (std::size_t f = 0; f < cols_; ++f) {
    std::uint16_t* col = &codes_[f * rows_];
    for (std::uint32_t r : cm.missing_rows(f)) col[r] = kMissingCode;
    // Quantize by walking the pre-sorted column against the sorted cuts:
    // O(rows + bins) per feature instead of a binary search per value.
    const std::vector<double>& cuts = bounds_.cuts(f);
    std::size_t b = 0;
    for (const ColumnMatrix::Entry& e : cm.column(f)) {
      while (b < cuts.size() && e.value > cuts[b]) ++b;
      col[e.row] = static_cast<std::uint16_t>(b);
    }
  }
}

// ---------------------------------------------------------------------------
// RegressionTree: histogram-engine fit
// ---------------------------------------------------------------------------

namespace {
/// Rows gathered per cache block during histogram accumulation.
constexpr std::size_t kRowBlock = 256;
}  // namespace

void RegressionTree::fit_hist(const HistTrainSet& ts, const std::vector<std::size_t>& rows,
                              const std::vector<double>& grad, const std::vector<double>& hess,
                              const TreeConfig& cfg, Rng& rng) {
  if (rows.empty()) throw std::invalid_argument("RegressionTree::fit_hist: empty row set");
  if (grad.size() != ts.rows() || hess.size() != ts.rows())
    throw std::invalid_argument("RegressionTree::fit_hist: grad/hess size mismatch");
  for (std::size_t r : rows)
    if (r >= ts.rows())
      throw std::invalid_argument("RegressionTree::fit_hist: row index out of range");
  nodes_.clear();
  std::vector<std::size_t> indices = rows;
  build_hist(ts, grad, hess, indices, 0, cfg, rng);
}

std::int32_t RegressionTree::build_hist(const HistTrainSet& ts, const std::vector<double>& grad,
                                        const std::vector<double>& hess,
                                        std::vector<std::size_t>& indices, std::size_t depth,
                                        const TreeConfig& cfg, Rng& rng) {
  double g_sum = 0.0, h_sum = 0.0;
  for (std::size_t i : indices) {
    g_sum += grad[i];
    h_sum += hess[i];
  }

  Node node;
  node.depth = depth;
  node.value = -g_sum / (h_sum + cfg.lambda);

  auto make_leaf = [&]() {
    nodes_.push_back(node);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (depth >= cfg.max_depth || indices.size() < 2 * cfg.min_samples_leaf) return make_leaf();

  const double parent_score = g_sum * g_sum / (h_sum + cfg.lambda);

  // The subset is drawn (and the RNG advanced) before any parallel work; each
  // feature scan fills its own histogram in fixed node-row order and writes
  // only its own candidate slot, so the reduction is timing-independent.
  const std::vector<std::size_t> feats =
      detail::feature_subset(ts.cols(), cfg.colsample, rng);
  const detail::SplitCandidate best =
      detail::best_split(feats, cfg.pool, [&](std::size_t f) {
        detail::SplitCandidate cand;
        cand.feature = f;
        const std::size_t bins = ts.bounds().num_bins(f);
        if (bins < 2) return cand;  // constant/all-missing feature: nothing to cut

        // Cache-blocked accumulation: gather a block of codes from the
        // contiguous code column, then scatter-add gradients. The histogram
        // (3 * bins values) stays cache-resident while the column streams.
        std::vector<double> hg(bins, 0.0), hh(bins, 0.0);
        std::vector<std::size_t> hn(bins, 0);
        const std::uint16_t* codes = ts.column_codes(f);
        std::array<std::uint16_t, kRowBlock> block;
        for (std::size_t base = 0; base < indices.size(); base += kRowBlock) {
          const std::size_t len = std::min(kRowBlock, indices.size() - base);
          for (std::size_t t = 0; t < len; ++t) block[t] = codes[indices[base + t]];
          for (std::size_t t = 0; t < len; ++t) {
            const std::uint16_t c = block[t];
            if (c == HistTrainSet::kMissingCode) continue;  // missing routes right
            const std::size_t i = indices[base + t];
            hg[c] += grad[i];
            hh[c] += hess[i];
            ++hn[c];
          }
        }

        // Scan the fixed cuts left-to-right. Strictly-better-gain keeps the
        // first (lowest-threshold) cut on exact ties — the same preference
        // the exact-engine oracle's scan encodes, before the cross-feature
        // tie-break in detail::improves.
        double gl = 0.0, hl = 0.0;
        std::size_t nl = 0;
        for (std::size_t b = 0; b + 1 < bins; ++b) {
          gl += hg[b];
          hl += hh[b];
          nl += hn[b];
          const std::size_t nr = indices.size() - nl;  // missing rows stay right
          if (nl == 0 || nr == 0) continue;
          if (nl < cfg.min_samples_leaf || nr < cfg.min_samples_leaf) continue;
          const double gr = g_sum - gl, hr = h_sum - hl;
          const double gain = gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda) -
                              parent_score;
          if (gain > cfg.min_gain && (!cand.valid || gain > cand.gain)) {
            cand.valid = true;
            cand.gain = gain;
            cand.threshold = ts.bounds().cut(f, b);
            cand.bin = b;
          }
        }
        return cand;
      });

  if (!best.valid) return make_leaf();

  // Partition by bin code: code <= cut bin goes left. kMissingCode compares
  // greater than every real bin, so missing rows route right — exactly what
  // `value <= threshold` does for NaN at prediction time.
  const std::uint16_t* codes = ts.column_codes(best.feature);
  std::vector<std::size_t> left_idx, right_idx;
  for (std::size_t i : indices) {
    if (codes[i] <= best.bin) left_idx.push_back(i);
    else right_idx.push_back(i);
  }
  if (left_idx.empty() || right_idx.empty()) return make_leaf();

  node.leaf = false;
  node.feature = best.feature;
  node.threshold = best.threshold;
  nodes_.push_back(node);
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left = build_hist(ts, grad, hess, left_idx, depth + 1, cfg, rng);
  const std::int32_t right = build_hist(ts, grad, hess, right_idx, depth + 1, cfg, rng);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

}  // namespace crowdlearn::gbdt
