#include "experts/dda_algorithm.hpp"

#include <stdexcept>

#include "cache/artifact_cache.hpp"
#include "ckpt/digest.hpp"
#include "ckpt/io.hpp"
#include "ckpt/state.hpp"
#include "nn/serialize.hpp"

#include "stats/distribution.hpp"

namespace crowdlearn::experts {

void DdaAlgorithm::save_state(ckpt::Writer&) const {
  throw std::logic_error("expert '" + name() + "' does not support checkpointing");
}

void DdaAlgorithm::load_state(ckpt::Reader&) {
  throw std::logic_error("expert '" + name() + "' does not support checkpointing");
}

void DdaAlgorithm::hash_spec(ckpt::Hasher128&) const {
  // Uncacheable experts (cacheable() == false) never reach a key
  // derivation, so the default fold is deliberately empty.
}

std::string DdaAlgorithm::state_payload() const {
  ckpt::Writer w;
  save_state(w);
  return w.payload();
}

void DdaAlgorithm::load_state_payload(const std::string& payload) {
  // load_state commits once its own records decode, so trailing bytes are
  // only seen afterwards; the snapshot puts the previous state back then.
  const std::string previous = state_payload();
  ckpt::Reader r(payload);
  load_state(r);
  if (!r.at_end()) {
    ckpt::Reader undo(previous);
    load_state(undo);
    r.expect_end();
  }
}

void hash_train_config(ckpt::Hasher128& h, const nn::TrainConfig& cfg) {
  h.u64(cfg.epochs);
  h.u64(cfg.batch_size);
  h.f64(cfg.learning_rate);
  h.f64(cfg.momentum);
  h.f64(cfg.weight_decay);
  h.u8(cfg.shuffle ? 1 : 0);
  h.u8(static_cast<std::uint8_t>(cfg.optimizer));
}

void NeuralDdaAlgorithm::hash_neural_spec(ckpt::Hasher128& h) const {
  hash_train_config(h, train_config());
  hash_train_config(h, retrain_config());
  h.u64(replay_per_new_label_);
}

void cached_expert_step(cache::ArtifactCache* cache, const char* schema_tag,
                        DdaAlgorithm& expert, const ckpt::Digest128& data_digest,
                        const std::vector<std::size_t>& image_ids,
                        const std::vector<std::size_t>& labels, Rng& child,
                        const std::function<void()>& compute) {
  if (cache == nullptr || !expert.cacheable()) {
    compute();
    return;
  }
  const std::string child_state = child.serialize();
  const std::string pre_state = expert.is_trained() ? expert.state_payload() : std::string();
  ckpt::Hasher128 h;
  h.str(schema_tag);
  h.str(expert.name());
  expert.hash_spec(h);
  h.u64(data_digest.hi);
  h.u64(data_digest.lo);
  h.vec_sizes(image_ids);
  h.vec_sizes(labels);
  h.str(child_state);
  // The pre-step model state: a retrain's output depends on the weights it
  // started from. An untrained expert (initial train) has no state yet; the
  // marker byte keeps trained/untrained keys disjoint.
  h.u8(expert.is_trained() ? 1 : 0);
  h.str(pre_state);
  const ckpt::Digest128 key = h.digest();

  auto run_and_pack = [&] {
    compute();
    ckpt::Writer w;
    expert.save_state(w);
    ckpt::save_rng(w, child);
    return w.payload();
  };
  cache::FetchResult fetched = cache->fetch_or_compute(key, run_and_pack);
  if (fetched.computed) return;  // this call ran compute(); state is live
  try {
    ckpt::Reader r(std::move(fetched.payload));
    expert.load_state(r);
    ckpt::load_rng(r, child);
    r.expect_end();
  } catch (const ckpt::CkptError&) {
    // The entry passed container validation but its payload does not match
    // this expert's schema (e.g. a stale artifact from an older layout).
    // Drop the poisoned entry, roll the expert and RNG stream back to their
    // exact pre-step bits (the apply may have died halfway through), and
    // recompute — never surface a cache error, never run from partial state.
    cache->invalidate(key);
    child.deserialize(child_state);
    if (!pre_state.empty()) expert.load_state_payload(pre_state);
    compute();
  }
}

std::size_t DdaAlgorithm::predict(const dataset::DisasterImage& image) {
  return stats::argmax(predict_proba(image));
}

std::vector<std::vector<double>> DdaAlgorithm::predict_proba_batch(
    const dataset::Dataset& data, const std::vector<std::size_t>& ids) {
  std::vector<std::vector<double>> out;
  out.reserve(ids.size());
  for (std::size_t id : ids) out.push_back(predict_proba(data.image(id)));
  return out;
}

std::vector<std::size_t> DdaAlgorithm::predict_batch(const dataset::Dataset& data,
                                                     const std::vector<std::size_t>& ids) {
  std::vector<std::size_t> out;
  out.reserve(ids.size());
  for (std::size_t id : ids) out.push_back(predict(data.image(id)));
  return out;
}

double DdaAlgorithm::accuracy(const dataset::Dataset& data,
                              const std::vector<std::size_t>& ids) {
  if (ids.empty()) throw std::invalid_argument("DdaAlgorithm::accuracy: empty id list");
  const std::vector<std::size_t> pred = predict_batch(data, ids);
  const std::vector<std::size_t> truth = data.labels(ids);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (pred[i] == truth[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(ids.size());
}

void NeuralDdaAlgorithm::set_thread_pool(util::ThreadPool* pool) {
  pool_ = pool;
  model_.set_thread_pool(pool_);
}

namespace {
constexpr char kNeuralTag[4] = {'N', 'D', 'A', '1'};
}

void NeuralDdaAlgorithm::save_state(ckpt::Writer& w) const {
  w.begin_section(kNeuralTag);
  w.str(name());
  w.u8(trained_ ? 1 : 0);
  if (trained_) nn::save_model(model_, w);
  w.vec_sizes(base_training_ids_);
  w.u64(replay_per_new_label_);
}

void NeuralDdaAlgorithm::load_state(ckpt::Reader& r) {
  r.expect_section(kNeuralTag);
  const std::string stored_name = r.str();
  if (stored_name != name()) {
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          "checkpoint holds expert '" + stored_name +
                              "' but this expert is '" + name() + "'");
  }
  const std::uint8_t trained_flag = r.u8();
  if (trained_flag > 1)
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed, "expert '" + name() + "': bad trained flag");
  const bool trained = trained_flag == 1;
  nn::Sequential model;
  if (trained) model = nn::load_model(r);
  std::vector<std::size_t> base_ids = r.vec_sizes();
  const auto replay = static_cast<std::size_t>(r.u64());

  // Commit the network, but take it back if the expert rejects it, so a
  // failed load leaves the previous network serving.
  std::swap(model_, model);
  if (trained) {
    try {
      on_model_loaded();
    } catch (...) {
      std::swap(model_, model);
      throw;
    }
  }
  model_.set_thread_pool(pool_);
  trained_ = trained;
  base_training_ids_ = std::move(base_ids);
  replay_per_new_label_ = replay;
}

void NeuralDdaAlgorithm::copy_neural_state(const NeuralDdaAlgorithm& src) {
  model_ = src.model_.clone();
  model_.set_thread_pool(pool_);  // each clone keeps its own pool, not src's
  trained_ = src.trained_;
  base_training_ids_ = src.base_training_ids_;
  replay_per_new_label_ = src.replay_per_new_label_;
}

nn::Matrix NeuralDdaAlgorithm::encode_batch(const dataset::Dataset& data,
                                            const std::vector<std::size_t>& ids) const {
  if (ids.empty()) throw std::invalid_argument("NeuralDdaAlgorithm: empty id list");
  const std::vector<double> first = encode(data.image(ids[0]));
  nn::Matrix m(ids.size(), first.size());
  m.set_row(0, first);
  for (std::size_t i = 1; i < ids.size(); ++i) m.set_row(i, encode(data.image(ids[i])));
  return m;
}

void NeuralDdaAlgorithm::train(const dataset::Dataset& data,
                               const std::vector<std::size_t>& image_ids, Rng& rng) {
  if (image_ids.empty()) throw std::invalid_argument("NeuralDdaAlgorithm::train: empty set");
  model_ = build_model(rng);
  model_.set_thread_pool(pool_);

  // Expand each image into its augmented variants.
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> y;
  for (std::size_t id : image_ids) {
    const std::size_t label = dataset::label_index(data.image(id).true_label);
    for (std::vector<double>& variant : encode_augmented(data.image(id))) {
      rows.push_back(std::move(variant));
      y.push_back(label);
    }
  }
  model_.fit(nn::Matrix::from_rows(rows), y, train_config(), rng);
  base_training_ids_ = image_ids;
  trained_ = true;
}

nn::TrainConfig NeuralDdaAlgorithm::retrain_config() const {
  nn::TrainConfig cfg = train_config();
  cfg.epochs = 4;
  cfg.learning_rate *= 0.3;
  return cfg;
}

void NeuralDdaAlgorithm::retrain(const dataset::Dataset& data,
                                 const std::vector<std::size_t>& image_ids,
                                 const std::vector<std::size_t>& crowd_labels, Rng& rng) {
  if (!trained_) throw std::logic_error("NeuralDdaAlgorithm::retrain before train");
  if (image_ids.size() != crowd_labels.size())
    throw std::invalid_argument("NeuralDdaAlgorithm::retrain: size mismatch");
  if (image_ids.empty()) return;

  // New crowd-labeled samples plus a replay draw of golden samples.
  std::vector<std::size_t> ids = image_ids;
  std::vector<std::size_t> labels = crowd_labels;
  if (!base_training_ids_.empty() && replay_per_new_label_ > 0) {
    const std::size_t replay = std::min(base_training_ids_.size(),
                                        replay_per_new_label_ * image_ids.size());
    for (std::size_t p : rng.sample_without_replacement(base_training_ids_.size(), replay)) {
      const std::size_t id = base_training_ids_[p];
      ids.push_back(id);
      labels.push_back(dataset::label_index(data.image(id).true_label));
    }
  }
  const nn::Matrix x = encode_batch(data, ids);
  model_.fit(x, labels, retrain_config(), rng);
}

std::vector<double> NeuralDdaAlgorithm::predict_proba(const dataset::DisasterImage& image) {
  if (!trained_) throw std::logic_error("NeuralDdaAlgorithm::predict before train");
  nn::Matrix x(1, model_.input_size());
  x.set_row(0, encode(image));
  return model_.predict_proba(x).row(0);
}

}  // namespace crowdlearn::experts
