#include "nn/sequential.hpp"

#include <numeric>
#include <stdexcept>

#include "stats/distribution.hpp"

namespace crowdlearn::nn {

Sequential::Sequential() : ws_(std::make_unique<Workspace>()) {}

void Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  if (!layers_.empty() && layers_.back()->output_size() != layer->input_size())
    throw std::invalid_argument("Sequential::add: size mismatch between " +
                                layers_.back()->name() + " and " + layer->name());
  layer->bind_workspace(ws_.get(), layers_.size());
  layers_.push_back(std::move(layer));
}

std::size_t Sequential::input_size() const {
  if (layers_.empty()) throw std::logic_error("Sequential: empty model");
  return layers_.front()->input_size();
}

std::size_t Sequential::output_size() const {
  if (layers_.empty()) throw std::logic_error("Sequential: empty model");
  return layers_.back()->output_size();
}

Matrix Sequential::forward(const Matrix& input, bool training) {
  return forward_ws(input, training);
}

const Matrix& Sequential::forward_ws(const Matrix& input, bool training) {
  if (layers_.empty()) throw std::logic_error("Sequential: empty model");
  const Matrix* cur = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Matrix& out = ws_->activation(i % 2);
    layers_[i]->forward_into(*cur, out, training);
    cur = &out;
  }
  return *cur;
}

void Sequential::backward_ws(const Matrix& grad_logits) {
  if (layers_.empty()) throw std::logic_error("Sequential: empty model");
  const Matrix* grad = &grad_logits;
  for (std::size_t i = layers_.size(); i-- > 1;) {
    // Layer i writes slot i % 2 and reads slot (i + 1) % 2 (or the logits
    // gradient), so input and output never alias.
    Matrix& grad_input = ws_->gradient(i % 2);
    layers_[i]->backward_into(*grad, &grad_input);
    grad = &grad_input;
  }
  layers_.front()->backward_into(*grad, nullptr);
}

Matrix Sequential::predict_proba(const Matrix& input) {
  return softmax(forward_ws(input, /*training=*/false));
}

std::vector<std::size_t> Sequential::predict(const Matrix& input) {
  const Matrix probs = predict_proba(input);
  std::vector<std::size_t> out(probs.rows());
  for (std::size_t r = 0; r < probs.rows(); ++r)
    out[r] = crowdlearn::stats::argmax(probs.row(r));
  return out;
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& layer : layers_) {
    auto cloned = layer->clone();
    cloned->bind_workspace(copy.ws_.get(), copy.layers_.size());
    copy.layers_.push_back(std::move(cloned));
  }
  return copy;
}

std::vector<Param> Sequential::params() {
  std::vector<Param> all;
  for (auto& layer : layers_)
    for (Param p : layer->params()) all.push_back(p);
  return all;
}

std::size_t Sequential::num_parameters() {
  std::size_t n = 0;
  for (const Param& p : params()) n += p.value->size();
  return n;
}

template <typename MakeLoss>
std::vector<EpochStats> Sequential::fit_impl(const Matrix& x, std::size_t n,
                                             const TrainConfig& cfg, Rng& rng,
                                             MakeLoss&& make_loss) {
  if (n == 0) throw std::invalid_argument("Sequential::fit: empty training set");
  if (cfg.batch_size == 0) throw std::invalid_argument("Sequential::fit: batch_size == 0");

  std::unique_ptr<Optimizer> opt;
  if (cfg.optimizer == OptimizerKind::kAdam)
    opt = std::make_unique<Adam>(cfg.learning_rate);
  else
    opt = std::make_unique<Sgd>(cfg.learning_rate, cfg.momentum, cfg.weight_decay);
  opt->attach(params());

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  std::vector<EpochStats> history;
  history.reserve(cfg.epochs);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (cfg.shuffle) rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t correct = 0, seen = 0, batches = 0;

    for (std::size_t start = 0; start < n; start += cfg.batch_size) {
      const std::size_t end = std::min(start + cfg.batch_size, n);
      const std::size_t bsz = end - start;
      Matrix xb(bsz, x.cols());
      std::vector<std::size_t> batch_indices(bsz);
      for (std::size_t i = 0; i < bsz; ++i) {
        batch_indices[i] = order[start + i];
        xb.set_row(i, x.row(order[start + i]));
      }

      const Matrix& logits = forward_ws(xb, /*training=*/true);
      // make_loss returns (LossResult, vector of hard labels for accuracy).
      auto [loss, hard] = make_loss(logits, batch_indices);
      loss_sum += loss.loss;
      ++batches;
      for (std::size_t i = 0; i < bsz; ++i) {
        if (crowdlearn::stats::argmax(loss.probabilities.row(i)) == hard[i]) ++correct;
        ++seen;
      }

      backward_ws(loss.grad_logits);
      opt->step();
    }
    history.push_back({loss_sum / static_cast<double>(batches),
                       static_cast<double>(correct) / static_cast<double>(seen)});
  }
  return history;
}

std::vector<EpochStats> Sequential::fit(const Matrix& x, const std::vector<std::size_t>& y,
                                        const TrainConfig& cfg, Rng& rng) {
  if (y.size() != x.rows()) throw std::invalid_argument("Sequential::fit: label count mismatch");
  return fit_impl(x, x.rows(), cfg, rng,
                  [&](const Matrix& logits, const std::vector<std::size_t>& idx) {
                    std::vector<std::size_t> yb(idx.size());
                    for (std::size_t i = 0; i < idx.size(); ++i) yb[i] = y[idx[i]];
                    return std::pair(softmax_cross_entropy(logits, yb), yb);
                  });
}

std::vector<EpochStats> Sequential::fit_soft(const Matrix& x, const Matrix& targets,
                                             const TrainConfig& cfg, Rng& rng) {
  if (targets.rows() != x.rows())
    throw std::invalid_argument("Sequential::fit_soft: target count mismatch");
  return fit_impl(x, x.rows(), cfg, rng,
                  [&](const Matrix& logits, const std::vector<std::size_t>& idx) {
                    Matrix tb(idx.size(), targets.cols());
                    std::vector<std::size_t> hard(idx.size());
                    for (std::size_t i = 0; i < idx.size(); ++i) {
                      tb.set_row(i, targets.row(idx[i]));
                      hard[i] = crowdlearn::stats::argmax(targets.row(idx[i]));
                    }
                    return std::pair(softmax_cross_entropy_soft(logits, tb), hard);
                  });
}

}  // namespace crowdlearn::nn
