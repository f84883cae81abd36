#include "experts/committee.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ckpt/io.hpp"
#include "experts/bovw.hpp"
#include "experts/ddm.hpp"
#include "experts/vgg16_like.hpp"
#include "stats/distribution.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::experts {

ExpertCommittee::ExpertCommittee(std::vector<std::unique_ptr<DdaAlgorithm>> experts)
    : experts_(std::move(experts)) {
  if (experts_.empty()) throw std::invalid_argument("ExpertCommittee: no experts");
  for (const auto& e : experts_)
    if (!e) throw std::invalid_argument("ExpertCommittee: null expert");
  weights_.assign(experts_.size(), 1.0 / static_cast<double>(experts_.size()));
  quarantined_.assign(experts_.size(), 0);
}

void ExpertCommittee::set_thread_pool(util::ThreadPool* pool) {
  pool_ = pool;
  for (const auto& e : experts_) e->set_thread_pool(pool);
}

void ExpertCommittee::set_weights(std::vector<double> w) {
  if (w.size() != experts_.size())
    throw std::invalid_argument("ExpertCommittee::set_weights: size mismatch");
  stats::normalize(w);
  weights_ = std::move(w);
  if (obs::active(obs_)) {
    for (std::size_t m = 0; m < weights_.size(); ++m)
      obs_weight_gauges_[m]->set(weights_[m]);
    obs_weight_updates_->inc();
  }
}

void ExpertCommittee::set_observability(obs::Observability* o) {
  if (!obs::active(o)) {
    obs_ = nullptr;
    obs_weight_gauges_.clear();
    obs_weight_updates_ = nullptr;
    obs_quarantined_total_ = nullptr;
    obs_quarantined_now_ = nullptr;
    obs_batch_seconds_ = nullptr;
    return;
  }
  obs_ = o;
  obs::MetricsRegistry& m = o->metrics();
  obs_weight_gauges_.resize(experts_.size());
  for (std::size_t i = 0; i < experts_.size(); ++i) {
    obs_weight_gauges_[i] = &m.gauge(obs::MetricsRegistry::labeled(
        "crowdlearn_expert_weight", {{"expert", std::to_string(i)}}));
    obs_weight_gauges_[i]->set(weights_[i]);
  }
  obs_weight_updates_ = &m.counter("crowdlearn_committee_weight_updates_total");
  obs_quarantined_total_ = &m.counter("crowdlearn_committee_quarantined_total");
  obs_quarantined_now_ = &m.gauge("crowdlearn_committee_quarantined");
  obs_batch_seconds_ =
      &m.histogram("crowdlearn_committee_batch_inference_seconds",
                   obs::Histogram::exponential_bounds(1e-3, 2.0, 14));
}

namespace {
constexpr char kCommitteeTag[4] = {'C', 'M', 'T', '1'};
}

void ExpertCommittee::save_state(ckpt::Writer& w) const {
  w.begin_section(kCommitteeTag);
  w.u64(experts_.size());
  for (const auto& e : experts_) {
    w.str(e->name());
    e->save_state(w);
  }
  w.vec_f64(weights_);
  std::vector<std::uint64_t> quarantined(quarantined_.begin(), quarantined_.end());
  w.vec_u64(quarantined);
}

void ExpertCommittee::load_state(ckpt::Reader& r) {
  r.expect_section(kCommitteeTag);
  const std::uint64_t count = r.u64();
  if (count != experts_.size()) {
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          "checkpoint roster has a different expert count");
  }
  for (const auto& e : experts_) {
    const std::string stored_name = r.str();
    if (stored_name != e->name()) {
      throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                            "checkpoint roster expert '" + stored_name +
                                "' does not match committee expert '" + e->name() + "'");
    }
    e->load_state(r);
  }
  // Weights were normalized when they were set; restore the saved bits
  // directly instead of renormalizing (re-dividing an already-normalized
  // vector is not a bitwise no-op).
  std::vector<double> weights = r.vec_f64();
  std::vector<std::uint64_t> quarantined = r.vec_u64();
  if (weights.size() != experts_.size() || quarantined.size() != experts_.size()) {
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          "committee weight/quarantine vector size mismatch");
  }
  weights_ = std::move(weights);
  quarantined_.assign(quarantined.begin(), quarantined.end());
  if (obs::active(obs_)) {
    for (std::size_t m = 0; m < weights_.size(); ++m)
      obs_weight_gauges_[m]->set(weights_[m]);
    obs_quarantined_now_->set(static_cast<double>(num_quarantined()));
  }
}

ExpertCommittee ExpertCommittee::clone() const {
  std::vector<std::unique_ptr<DdaAlgorithm>> experts;
  experts.reserve(experts_.size());
  for (const auto& e : experts_) experts.push_back(e->clone());
  ExpertCommittee copy(std::move(experts));
  copy.weights_ = weights_;
  copy.quarantined_ = quarantined_;
  copy.set_thread_pool(pool_);  // expert clones drop the pool; re-propagate
  copy.set_observability(obs_);
  return copy;
}

bool ExpertCommittee::all_trained() const {
  for (const auto& e : experts_)
    if (!e->is_trained()) return false;
  return true;
}

namespace {

/// One independent RNG stream per expert, forked from the master stream in
/// expert order *before* any parallel dispatch. The fork sequence consumes
/// the parent exactly as the old serial loop did, so per-seed results are
/// unchanged — and no task ever touches shared RNG state.
std::vector<Rng> fork_per_expert(Rng& rng, std::size_t num_experts) {
  std::vector<Rng> children;
  children.reserve(num_experts);
  for (std::size_t m = 0; m < num_experts; ++m) children.push_back(rng.fork());
  return children;
}

}  // namespace

void ExpertCommittee::run_forked(
    Rng& rng, const std::function<void(std::size_t, DdaAlgorithm&, Rng&)>& step) {
  std::vector<Rng> children = fork_per_expert(rng, experts_.size());
  if (pool_ != nullptr && pool_->size() > 1 && experts_.size() > 1) {
    pool_->parallel_for(experts_.size(),
                        [&](std::size_t m) { step(m, *experts_[m], children[m]); });
  } else {
    for (std::size_t m = 0; m < experts_.size(); ++m) step(m, *experts_[m], children[m]);
  }
  reinstate_quarantined();
}

void ExpertCommittee::train_all(const dataset::Dataset& data,
                                const std::vector<std::size_t>& image_ids, Rng& rng) {
  run_forked(rng, [&](std::size_t, DdaAlgorithm& e, Rng& child) {
    e.train(data, image_ids, child);
  });
}

void ExpertCommittee::retrain_all(const dataset::Dataset& data,
                                  const std::vector<std::size_t>& image_ids,
                                  const std::vector<std::size_t>& crowd_labels, Rng& rng) {
  run_forked(rng, [&](std::size_t, DdaAlgorithm& e, Rng& child) {
    e.retrain(data, image_ids, crowd_labels, child);
  });
}

namespace {
// Schema tags versioning the cached artifact layouts; bump on any change to
// the key derivation or the stored payload (docs/CACHING.md).
constexpr const char* kTrainSchema = "crowdlearn.expert.train.v1";
constexpr const char* kRetrainSchema = "crowdlearn.expert.retrain.v1";
}  // namespace

void ExpertCommittee::train_all(const dataset::Dataset& data,
                                const std::vector<std::size_t>& image_ids, Rng& rng,
                                cache::ArtifactCache* cache,
                                const ckpt::Digest128& data_digest) {
  run_forked(rng, [&](std::size_t, DdaAlgorithm& e, Rng& child) {
    cached_expert_step(cache, kTrainSchema, e, data_digest, image_ids, {}, child,
                       [&] { e.train(data, image_ids, child); });
  });
}

void ExpertCommittee::retrain_all(const dataset::Dataset& data,
                                  const std::vector<std::size_t>& image_ids,
                                  const std::vector<std::size_t>& crowd_labels, Rng& rng,
                                  cache::ArtifactCache* cache,
                                  const ckpt::Digest128& data_digest) {
  run_forked(rng, [&](std::size_t, DdaAlgorithm& e, Rng& child) {
    cached_expert_step(cache, kRetrainSchema, e, data_digest, image_ids, crowd_labels,
                       child, [&] { e.retrain(data, image_ids, crowd_labels, child); });
  });
}

std::vector<std::vector<double>> ExpertCommittee::expert_votes(
    const dataset::DisasterImage& image) {
  std::vector<std::vector<double>> votes(experts_.size());
  if (pool_ != nullptr && pool_->size() > 1 && experts_.size() > 1) {
    pool_->parallel_for(experts_.size(),
                        [&](std::size_t m) { votes[m] = experts_[m]->predict_proba(image); });
  } else {
    for (std::size_t m = 0; m < experts_.size(); ++m)
      votes[m] = experts_[m]->predict_proba(image);
  }
  return votes;
}

std::vector<std::vector<std::vector<double>>> ExpertCommittee::expert_votes_batch(
    const dataset::Dataset& data, const std::vector<std::size_t>& ids) {
  obs::SpanScope span(obs::tracer_of(obs_), "committee.votes_batch", "experts");
  span.arg("images", static_cast<double>(ids.size()));
  const auto t0 = std::chrono::steady_clock::now();
  auto record_batch_time = [&] {
    if (obs_batch_seconds_ != nullptr) {
      obs_batch_seconds_->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
  };
  std::vector<std::vector<std::vector<double>>> out(ids.size());
  if (pool_ == nullptr || pool_->size() <= 1 || ids.size() <= 1) {
    for (std::size_t i = 0; i < ids.size(); ++i) out[i] = expert_votes(data.image(ids[i]));
    record_batch_time();
    return out;
  }
  // Private replica per chunk: inference mutates layer caches, so the
  // shared roster cannot serve two threads. Clones carry the exact trained
  // parameters, so every chunk computes the same bits the serial path would.
  // Called from one of the pool's own workers (a serving dispatch), the
  // batch stays one chunk with one roster clone: further chunks would each
  // pay a clone on the request's latency path while other dispatches
  // compete for the same workers.
  const std::size_t grain = pool_->on_worker() ? ids.size() : 1;
  pool_->parallel_chunks_grained(ids.size(), grain,
                                 [&](std::size_t begin, std::size_t end) {
    std::vector<std::unique_ptr<DdaAlgorithm>> replica;
    replica.reserve(experts_.size());
    for (const auto& e : experts_) replica.push_back(e->clone());
    for (std::size_t i = begin; i < end; ++i) {
      std::vector<std::vector<double>> votes(replica.size());
      for (std::size_t m = 0; m < replica.size(); ++m)
        votes[m] = replica[m]->predict_proba(data.image(ids[i]));
      out[i] = std::move(votes);
    }
  });
  record_batch_time();
  return out;
}

namespace {

bool vote_is_degenerate(const std::vector<double>& vote) {
  if (vote.size() != dataset::kNumSeverityClasses) return true;
  double sum = 0.0;
  for (double v : vote) {
    if (!std::isfinite(v) || v < 0.0) return true;
    sum += v;
  }
  return sum <= 0.0;
}

}  // namespace

std::vector<double> ExpertCommittee::committee_vote(
    const std::vector<std::vector<double>>& votes) const {
  if (votes.size() != experts_.size())
    throw std::invalid_argument("committee_vote: vote count mismatch");
  std::vector<double> rho(dataset::kNumSeverityClasses, 0.0);
  const bool all_quarantined = num_quarantined() == experts_.size();
  for (std::size_t m = 0; m < votes.size(); ++m) {
    if (votes[m].size() != rho.size())
      throw std::invalid_argument("committee_vote: vote width mismatch");
    // Quarantined experts carry no weight; normalize() below renormalizes
    // the surviving weights implicitly. If everyone is quarantined, vote
    // over the sanitized (uniform-replaced) distributions instead.
    if (!all_quarantined && quarantined_[m] != 0) continue;
    for (std::size_t c = 0; c < rho.size(); ++c) rho[c] += weights_[m] * votes[m][c];
  }
  stats::normalize(rho);  // Eq. 2's normalization step
  return rho;
}

std::size_t ExpertCommittee::quarantine_degenerate_votes(
    std::vector<std::vector<double>>& votes) {
  if (votes.size() != experts_.size())
    throw std::invalid_argument("quarantine_degenerate_votes: vote count mismatch");
  std::size_t newly = 0;
  const double uniform = 1.0 / static_cast<double>(dataset::kNumSeverityClasses);
  for (std::size_t m = 0; m < votes.size(); ++m) {
    if (!vote_is_degenerate(votes[m])) continue;
    if (quarantined_[m] == 0) {
      quarantined_[m] = 1;
      ++newly;
    }
    votes[m].assign(dataset::kNumSeverityClasses, uniform);
  }
  if (newly > 0 && obs::active(obs_)) {
    obs_quarantined_total_->inc(newly);
    obs_quarantined_now_->set(static_cast<double>(num_quarantined()));
  }
  return newly;
}

std::size_t ExpertCommittee::quarantine_degenerate_votes(
    std::vector<std::vector<std::vector<double>>>& batch) {
  std::size_t newly = 0;
  for (auto& votes : batch) newly += quarantine_degenerate_votes(votes);
  return newly;
}

std::size_t ExpertCommittee::num_quarantined() const {
  std::size_t n = 0;
  for (char q : quarantined_)
    if (q != 0) ++n;
  return n;
}

void ExpertCommittee::reinstate_quarantined() {
  quarantined_.assign(experts_.size(), 0);
  if (obs::active(obs_)) obs_quarantined_now_->set(0.0);
}

std::vector<double> ExpertCommittee::committee_vote(const dataset::DisasterImage& image) {
  return committee_vote(expert_votes(image));
}

double ExpertCommittee::committee_entropy(
    const std::vector<std::vector<double>>& votes) const {
  return stats::entropy(committee_vote(votes));
}

double ExpertCommittee::committee_entropy(const dataset::DisasterImage& image) {
  return stats::entropy(committee_vote(image));
}

std::size_t ExpertCommittee::predict(const dataset::DisasterImage& image) {
  return stats::argmax(committee_vote(image));
}

std::vector<std::size_t> ExpertCommittee::predict_batch(const dataset::Dataset& data,
                                                        const std::vector<std::size_t>& ids) {
  const auto votes = expert_votes_batch(data, ids);
  std::vector<std::size_t> out;
  out.reserve(ids.size());
  for (const auto& image_votes : votes) out.push_back(stats::argmax(committee_vote(image_votes)));
  return out;
}

ExpertCommittee make_default_committee() {
  std::vector<std::unique_ptr<DdaAlgorithm>> experts;
  experts.push_back(std::make_unique<Vgg16Like>());
  experts.push_back(std::make_unique<BovwClassifier>());
  experts.push_back(std::make_unique<DdmClassifier>());
  return ExpertCommittee(std::move(experts));
}

}  // namespace crowdlearn::experts
