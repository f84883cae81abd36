#pragma once
// Split-search helpers shared by every tree grower: the histogram engine
// (gbdt/hist.cpp), the classification tree (gbdt/tree.cpp) and the
// exact-engine test oracle (tests/oracle/exact_gbdt.cpp). All of them reduce
// per-feature candidates through the SAME deterministic preference order, so
// the documented tie-break (higher gain, then lower feature index, then lower
// threshold) has exactly one implementation — tests/test_gbdt.cpp pins it on
// the histogram engine and the oracle alike.

#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::gbdt {

struct TreeConfig;

namespace detail {

/// Candidate feature subset for a split (column subsampling). The draw
/// happens on the calling thread BEFORE any parallel scan is dispatched, so
/// the RNG stream is identical at any thread count.
inline std::vector<std::size_t> feature_subset(std::size_t cols, double colsample, Rng& rng) {
  std::vector<std::size_t> feats(cols);
  std::iota(feats.begin(), feats.end(), std::size_t{0});
  if (colsample >= 1.0) return feats;
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(colsample * static_cast<double>(cols))));
  rng.shuffle(feats);
  feats.resize(keep);
  return feats;
}

/// Best split found while scanning one feature. `bin` is only meaningful for
/// the histogram engine (the last bin routed left); the sort-based scans
/// leave it unused.
struct SplitCandidate {
  bool valid = false;
  double gain = -std::numeric_limits<double>::infinity();
  std::size_t feature = 0;
  double threshold = 0.0;
  std::size_t bin = 0;
};

/// Deterministic total preference order over candidates: higher gain wins;
/// exact gain ties go to the lower feature index, then the lower threshold.
/// Because the reduction visits candidates in a fixed order and this
/// predicate depends only on candidate values, the chosen split is identical
/// no matter how many threads scanned the features.
inline bool improves(const SplitCandidate& cand, const SplitCandidate& best) {
  if (!cand.valid) return false;
  if (!best.valid) return true;
  if (cand.gain != best.gain) return cand.gain > best.gain;
  if (cand.feature != best.feature) return cand.feature < best.feature;
  return cand.threshold < best.threshold;
}

/// Scan every candidate feature (parallel when `pool` allows) and reduce to
/// the single best split on the calling thread, in subset order. Each scan
/// task writes only its own preallocated candidate slot (the PR 1
/// static-chunk contract), so the reduction input is independent of timing.
template <typename ScanFeature>
SplitCandidate best_split(const std::vector<std::size_t>& feats, util::ThreadPool* pool,
                          ScanFeature&& scan) {
  std::vector<SplitCandidate> candidates(feats.size());
  // One feature per chunk: a grain sized by node work kept small nodes'
  // scans on the calling thread, which grew glibc's per-thread arenas.
  util::parallel_chunks(pool, feats.size(), util::ThreadPool::kMinChunkWork,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t fi = begin; fi < end; ++fi)
                            candidates[fi] = scan(feats[fi]);
                        });
  SplitCandidate best;
  for (const SplitCandidate& cand : candidates)
    if (improves(cand, best)) best = cand;
  return best;
}

}  // namespace detail
}  // namespace crowdlearn::gbdt
