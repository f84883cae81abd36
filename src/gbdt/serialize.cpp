// Checkpoint hooks for the tree ensembles (docs/CHECKPOINTING.md). Each
// class frames its state with a four-character section tag and restores into
// temporaries before committing, so a malformed payload never leaves a model
// half-mutated.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/digest.hpp"
#include "ckpt/io.hpp"
#include "gbdt/adaboost.hpp"
#include "gbdt/gbdt.hpp"
#include "gbdt/tree.hpp"

namespace crowdlearn::gbdt {

namespace {
constexpr char kRegTreeTag[4] = {'R', 'T', 'R', '1'};
constexpr char kClsTreeTag[4] = {'C', 'T', 'R', '1'};
// GBT3 holds only what prediction reads: class count, shrinkage, trees.
// Older forest sections exist only in older container versions, which fail
// with kBadVersion before this section is reached, so there is no legacy
// decode path.
constexpr char kGbdtTag[4] = {'G', 'B', 'T', '3'};
constexpr char kAdaTag[4] = {'A', 'D', 'A', '1'};

// Children must point inside the node table (or be -1 for leaves).
void check_child(std::int64_t child, std::uint64_t num_nodes, const char* what) {
  if (child < -1 || child >= static_cast<std::int64_t>(num_nodes)) {
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          std::string(what) + " child index out of range");
  }
}
}  // namespace

void RegressionTree::save_state(ckpt::Writer& w) const {
  w.begin_section(kRegTreeTag);
  w.u64(nodes_.size());
  for (const Node& n : nodes_) {
    w.u8(n.leaf ? 1 : 0);
    w.u64(n.feature);
    w.f64(n.threshold);
    w.f64(n.value);
    w.i64(n.left);
    w.i64(n.right);
    w.u64(n.depth);
  }
}

void RegressionTree::load_state(ckpt::Reader& r) {
  r.expect_section(kRegTreeTag);
  const std::uint64_t count = r.u64();
  std::vector<Node> nodes;
  nodes.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Node n;
    n.leaf = r.u8() != 0;
    n.feature = r.u64();
    n.threshold = r.f64();
    n.value = r.f64();
    const std::int64_t left = r.i64();
    const std::int64_t right = r.i64();
    check_child(left, count, "RegressionTree");
    check_child(right, count, "RegressionTree");
    n.left = static_cast<std::int32_t>(left);
    n.right = static_cast<std::int32_t>(right);
    n.depth = r.u64();
    nodes.push_back(n);
  }
  nodes_ = std::move(nodes);
}

void DecisionTreeClassifier::save_state(ckpt::Writer& w) const {
  w.begin_section(kClsTreeTag);
  w.u64(k_);
  w.u64(nodes_.size());
  for (const Node& n : nodes_) {
    w.u8(n.leaf ? 1 : 0);
    w.u64(n.feature);
    w.f64(n.threshold);
    w.vec_f64(n.class_dist);
    w.i64(n.left);
    w.i64(n.right);
  }
}

void DecisionTreeClassifier::load_state(ckpt::Reader& r) {
  r.expect_section(kClsTreeTag);
  const std::uint64_t k = r.u64();
  const std::uint64_t count = r.u64();
  std::vector<Node> nodes;
  nodes.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Node n;
    n.leaf = r.u8() != 0;
    n.feature = r.u64();
    n.threshold = r.f64();
    n.class_dist = r.vec_f64();
    if (n.leaf && n.class_dist.size() != k) {
      throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                            "DecisionTreeClassifier leaf distribution size mismatch");
    }
    const std::int64_t left = r.i64();
    const std::int64_t right = r.i64();
    check_child(left, count, "DecisionTreeClassifier");
    check_child(right, count, "DecisionTreeClassifier");
    n.left = static_cast<std::int32_t>(left);
    n.right = static_cast<std::int32_t>(right);
    nodes.push_back(std::move(n));
  }
  k_ = static_cast<std::size_t>(k);
  nodes_ = std::move(nodes);
}

void Gbdt::save_state(ckpt::Writer& w) const {
  w.begin_section(kGbdtTag);
  w.u64(k_);
  w.f64(lr_);
  w.u64(trees_.size());
  for (const RegressionTree& t : trees_) t.save_state(w);
}

void Gbdt::load_state(ckpt::Reader& r) {
  r.expect_section(kGbdtTag);
  const std::uint64_t k = r.u64();
  const double lr = r.f64();
  const std::uint64_t count = r.u64();
  if (k > 0 && count % k != 0) {
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          "Gbdt tree count is not a multiple of num_classes");
  }
  if (k == 0 && count != 0) {
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          "Gbdt has trees but zero classes");
  }
  std::vector<RegressionTree> trees(count);
  for (std::uint64_t i = 0; i < count; ++i) trees[i].load_state(r);
  k_ = static_cast<std::size_t>(k);
  lr_ = lr;
  trees_ = std::move(trees);
}

void AdaBoostSamme::save_state(ckpt::Writer& w) const {
  w.begin_section(kAdaTag);
  w.u64(k_);
  w.u64(learners_.size());
  for (const DecisionTreeClassifier& l : learners_) l.save_state(w);
  w.vec_f64(alphas_);
}

void AdaBoostSamme::load_state(ckpt::Reader& r) {
  r.expect_section(kAdaTag);
  const std::uint64_t k = r.u64();
  const std::uint64_t count = r.u64();
  std::vector<DecisionTreeClassifier> learners(count);
  for (std::uint64_t i = 0; i < count; ++i) learners[i].load_state(r);
  std::vector<double> alphas = r.vec_f64();
  if (alphas.size() != count) {
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          "AdaBoostSamme learner/alpha count mismatch");
  }
  k_ = static_cast<std::size_t>(k);
  learners_ = std::move(learners);
  alphas_ = std::move(alphas);
}

std::string Gbdt::state_payload() const {
  ckpt::Writer w;
  save_state(w);
  return w.payload();
}

void Gbdt::load_state_payload(const std::string& payload) {
  ckpt::Reader r(payload);
  load_state(r);
  r.expect_end();
}

void hash_config(ckpt::Hasher128& h, const GbdtConfig& cfg) {
  h.u64(cfg.num_rounds);
  h.f64(cfg.learning_rate);
  h.f64(cfg.subsample);
  h.u64(cfg.max_bins);
  h.u64(cfg.tree.max_depth);
  h.u64(cfg.tree.min_samples_leaf);
  h.f64(cfg.tree.lambda);
  h.f64(cfg.tree.min_gain);
  h.f64(cfg.tree.colsample);
  h.u64(cfg.seed);
}

}  // namespace crowdlearn::gbdt
