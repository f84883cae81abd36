#include "experts/ddm.hpp"

#include "ckpt/digest.hpp"
#include "ckpt/io.hpp"

#include <algorithm>
#include <stdexcept>

#include "experts/vgg16_like.hpp"
#include "stats/distribution.hpp"

namespace crowdlearn::experts {

nn::Sequential DdmClassifier::build_model(Rng& rng) {
  using namespace nn;
  const Shape3 in{1, imaging::kImageSide, imaging::kImageSide};

  Sequential m;
  auto conv1 = std::make_unique<Conv2D>(in, cfg_.conv1_channels, 3, rng);
  const Shape3 s1 = conv1->out_shape();
  m.add(std::move(conv1));
  m.add(std::make_unique<ReLU>(s1.size()));
  auto pool1 = std::make_unique<MaxPool2D>(s1);
  const Shape3 s2 = pool1->out_shape();
  m.add(std::move(pool1));

  auto conv2 = std::make_unique<Conv2D>(s2, cfg_.conv2_channels, 3, rng);
  const Shape3 s3 = conv2->out_shape();
  conv2_index_ = m.num_layers();
  m.add(std::move(conv2));
  m.add(std::make_unique<ReLU>(s3.size()));
  auto pool2 = std::make_unique<MaxPool2D>(s3);
  const Shape3 s4 = pool2->out_shape();
  m.add(std::move(pool2));

  m.add(std::make_unique<Dense>(s4.size(), cfg_.hidden, rng));
  m.add(std::make_unique<ReLU>(cfg_.hidden));
  m.add(std::make_unique<Dense>(cfg_.hidden, dataset::kNumSeverityClasses, rng));
  return m;
}

void DdmClassifier::on_model_loaded() {
  // Grad-CAM attaches to the last convolutional layer and reads its
  // activations from the ReLU right above it; relocate it in the freshly
  // loaded network.
  std::size_t last_conv = model_.num_layers();
  for (std::size_t i = 0; i < model_.num_layers(); ++i)
    if (dynamic_cast<nn::Conv2D*>(&model_.layer(i)) != nullptr) last_conv = i;
  if (last_conv == model_.num_layers())
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          "DdmClassifier: loaded model has no convolutional layer");
  if (last_conv + 1 >= model_.num_layers() ||
      dynamic_cast<nn::ReLU*>(&model_.layer(last_conv + 1)) == nullptr)
    throw ckpt::CkptError(ckpt::CkptErrc::kMalformed,
                          "DdmClassifier: loaded model has no ReLU after its last conv layer");
  conv2_index_ = last_conv;
}

void DdmClassifier::hash_spec(ckpt::Hasher128& h) const {
  h.u64(cfg_.conv1_channels);
  h.u64(cfg_.conv2_channels);
  h.u64(cfg_.hidden);
  h.f64(cfg_.heatmap_blend);
  h.f64(cfg_.activation_threshold);
  h.f64(cfg_.moderate_area);
  h.f64(cfg_.severe_area);
  hash_neural_spec(h);
}

std::unique_ptr<DdaAlgorithm> DdmClassifier::clone() const {
  auto copy = std::make_unique<DdmClassifier>(cfg_);
  copy->copy_neural_state(*this);
  copy->conv2_index_ = conv2_index_;
  return copy;
}

std::vector<double> DdmClassifier::encode(const dataset::DisasterImage& image) const {
  return image.pixels.data();
}

std::vector<std::vector<double>> DdmClassifier::encode_augmented(
    const dataset::DisasterImage& image) const {
  return flip_augmented_pixels(image);
}

nn::Tensor3 DdmClassifier::damage_heatmap(const dataset::DisasterImage& image,
                                          std::size_t cls) {
  if (!trained()) throw std::logic_error("DdmClassifier::damage_heatmap before train");
  if (cls >= dataset::kNumSeverityClasses)
    throw std::out_of_range("DdmClassifier::damage_heatmap: bad class");
  nn::Matrix x(1, model_.input_size());
  x.set_row(0, encode(image));
  model_.forward_ws(x, /*training=*/false);
  return grad_cam(cls);
}

nn::Tensor3 DdmClassifier::grad_cam(std::size_t cls) {
  const auto& conv = dynamic_cast<const nn::Conv2D&>(model_.layer(conv2_index_));
  const nn::Shape3& sh = conv.out_shape();
  const std::size_t hw = sh.height * sh.width;
  // conv2's output, sample 0: the ReLU above it keeps an exact copy.
  const auto& relu = dynamic_cast<const nn::ReLU&>(model_.layer(conv2_index_ + 1));
  const double* act = relu.last_input().data().data();

  // d(score_cls) / d(conv2 output): input gradients through every layer
  // above conv2, from the caches the forward left.
  nn::Matrix onehot(1, dataset::kNumSeverityClasses);
  onehot(0, cls) = 1.0;
  const double* grad = model_.input_gradient_ws(onehot, conv2_index_ + 1).data().data();

  // Grad-CAM: alpha_ch = spatial mean of the gradient; map = relu(sum alpha*A).
  // Each cell sums its channels in ascending order from 0.0.
  nn::Tensor3 cam(nn::Shape3{1, sh.height, sh.width});
  double* map = cam.data().data();
  for (std::size_t c = 0; c < sh.channels; ++c) {
    const double* gc = grad + c * hw;
    double sum = 0.0;
    for (std::size_t i = 0; i < hw; ++i) sum += gc[i];
    const double alpha = sum / static_cast<double>(hw);
    const double* ac = act + c * hw;
    for (std::size_t i = 0; i < hw; ++i) map[i] += alpha * ac[i];
  }
  for (std::size_t i = 0; i < hw; ++i) map[i] = std::max(map[i], 0.0);
  return cam;
}

double DdmClassifier::activated_fraction(const nn::Tensor3& heatmap) const {
  const double* data = heatmap.data().data();
  const std::size_t n = heatmap.size();
  if (n == 0) throw std::invalid_argument("activated_fraction: empty heatmap");
  double peak = data[0];  // the first maximum, as std::max_element picks
  for (std::size_t i = 1; i < n; ++i)
    if (peak < data[i]) peak = data[i];
  if (peak <= 0.0) return 0.0;
  const double cut = cfg_.activation_threshold * peak;
  std::size_t on = 0;
  for (std::size_t i = 0; i < n; ++i) on += data[i] > cut ? 1 : 0;
  return static_cast<double>(on) / static_cast<double>(n);
}

std::vector<double> DdmClassifier::heatmap_prior() {
  // Measure the activated area of the "severe" Grad-CAM — the damage extent.
  const double area =
      activated_fraction(grad_cam(dataset::label_index(dataset::Severity::kSevere)));

  std::vector<double> prior(dataset::kNumSeverityClasses, 0.1);
  if (area >= cfg_.severe_area)
    prior[dataset::label_index(dataset::Severity::kSevere)] = 0.8;
  else if (area >= cfg_.moderate_area)
    prior[dataset::label_index(dataset::Severity::kModerate)] = 0.8;
  else
    prior[dataset::label_index(dataset::Severity::kNone)] = 0.8;
  stats::normalize(prior);
  return prior;
}

std::vector<double> DdmClassifier::predict_proba(const dataset::DisasterImage& image) {
  // The vote's one forward; the Grad-CAM prior reads the state it leaves.
  std::vector<double> cnn = NeuralDdaAlgorithm::predict_proba(image);
  if (cfg_.heatmap_blend > 0.0) {
    const std::vector<double> prior = heatmap_prior();
    for (std::size_t c = 0; c < cnn.size(); ++c)
      cnn[c] = (1.0 - cfg_.heatmap_blend) * cnn[c] + cfg_.heatmap_blend * prior[c];
    stats::normalize(cnn);
  }
  return cnn;
}

}  // namespace crowdlearn::experts
