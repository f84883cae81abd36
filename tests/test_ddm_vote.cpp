// Differential tests for the DDM expert's vote. A vote runs the network
// forward once and computes its Grad-CAM prior from the state that forward
// leaves in the layers, through input gradients only. The reference below is
// the two-pass recipe spelled out from public pieces: the CNN posterior, a
// second inference forward, the full Layer::backward chained above the CAM
// conv layer, then the Grad-CAM map, its activated area, the prior and the
// blend. Every vote and heatmap must equal it bit for bit at any thread
// count, and inference must leave the training state exactly as it was.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "experts/ddm.hpp"
#include "stats/distribution.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::experts {
namespace {

void expect_bits_eq(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << what << " differs at " << i << ": " << a[i] << " vs " << b[i];
}

std::unique_ptr<DdmClassifier> clone_ddm(const DdmClassifier& ddm) {
  return std::unique_ptr<DdmClassifier>(dynamic_cast<DdmClassifier*>(ddm.clone().release()));
}

/// Index of the last convolutional layer: the Grad-CAM layer.
std::size_t cam_layer(nn::Sequential& model) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i)
    if (dynamic_cast<nn::Conv2D*>(&model.layer(i)) != nullptr) idx = i;
  return idx;
}

nn::Matrix input_row(nn::Sequential& model, const dataset::DisasterImage& image) {
  nn::Matrix x(1, model.input_size());
  x.set_row(0, image.pixels.data());
  return x;
}

/// The two-pass Grad-CAM: a fresh inference forward chained layer by layer,
/// keeping the CAM layer's output, then the full backward (parameter
/// gradients included, cleared afterwards) above the CAM layer.
nn::Tensor3 reference_heatmap(nn::Sequential& model, const dataset::DisasterImage& image,
                              std::size_t cls) {
  const std::size_t conv_idx = cam_layer(model);
  nn::Matrix x = input_row(model, image);
  nn::Matrix conv_out;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    x = model.layer(i).forward(x, /*training=*/false);
    if (i == conv_idx) conv_out = x;
  }
  const nn::Shape3 sh = dynamic_cast<nn::Conv2D&>(model.layer(conv_idx)).out_shape();
  const nn::Tensor3 act(sh, conv_out.row(0));
  nn::Matrix grad(1, dataset::kNumSeverityClasses);
  grad(0, cls) = 1.0;
  for (std::size_t i = model.num_layers(); i-- > conv_idx + 1;)
    grad = model.layer(i).backward(grad);
  for (nn::Param& p : model.params()) p.grad->fill(0.0);

  const std::size_t hw = sh.height * sh.width;
  std::vector<double> alpha(sh.channels, 0.0);
  for (std::size_t c = 0; c < sh.channels; ++c) {
    for (std::size_t i = 0; i < hw; ++i) alpha[c] += grad(0, c * hw + i);
    alpha[c] /= static_cast<double>(hw);
  }
  nn::Tensor3 cam(nn::Shape3{1, sh.height, sh.width});
  for (std::size_t y = 0; y < sh.height; ++y) {
    for (std::size_t x = 0; x < sh.width; ++x) {
      double v = 0.0;
      for (std::size_t c = 0; c < sh.channels; ++c) v += alpha[c] * act.at(c, y, x);
      cam.at(0, y, x) = std::max(v, 0.0);
    }
  }
  return cam;
}

double reference_area(const DdmConfig& cfg, const nn::Tensor3& cam) {
  const auto& data = cam.data();
  const double peak = *std::max_element(data.begin(), data.end());
  if (peak <= 0.0) return 0.0;
  std::size_t on = 0;
  for (double v : data)
    if (v > cfg.activation_threshold * peak) ++on;
  return static_cast<double>(on) / static_cast<double>(data.size());
}

std::vector<double> reference_vote(nn::Sequential& model, const DdmConfig& cfg,
                                   const dataset::DisasterImage& image) {
  std::vector<double> cnn = model.predict_proba(input_row(model, image)).row(0);
  if (cfg.heatmap_blend <= 0.0) return cnn;
  const std::size_t severe = dataset::label_index(dataset::Severity::kSevere);
  const double area = reference_area(cfg, reference_heatmap(model, image, severe));
  std::vector<double> prior(dataset::kNumSeverityClasses, 0.1);
  if (area >= cfg.severe_area)
    prior[severe] = 0.8;
  else if (area >= cfg.moderate_area)
    prior[dataset::label_index(dataset::Severity::kModerate)] = 0.8;
  else
    prior[dataset::label_index(dataset::Severity::kNone)] = 0.8;
  stats::normalize(prior);
  for (std::size_t c = 0; c < cnn.size(); ++c)
    cnn[c] = (1.0 - cfg.heatmap_blend) * cnn[c] + cfg.heatmap_blend * prior[c];
  stats::normalize(cnn);
  return cnn;
}

/// A small scenario and a briefly trained DDM per blend setting, shared by
/// every test in the file (training dominates its cost, under TSan most of
/// all).
class DdmVoteTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset::DatasetConfig cfg;
    cfg.total_images = 48;
    cfg.train_images = 32;
    cfg.seed = 19;
    data_ = std::make_unique<dataset::Dataset>(dataset::generate_dataset(cfg));
    for (double blend : {0.0, DdmConfig{}.heatmap_blend}) {
      DdmConfig dc;
      dc.train.epochs = 3;
      dc.heatmap_blend = blend;
      auto ddm = std::make_unique<DdmClassifier>(dc);
      Rng rng(23);
      ddm->train(*data_, data_->train_indices, rng);
      trained_.push_back({dc, std::move(ddm)});
    }
  }
  static void TearDownTestSuite() {
    trained_.clear();
    data_.reset();
  }

  struct Trained {
    DdmConfig cfg;
    std::unique_ptr<DdmClassifier> ddm;
  };
  inline static std::unique_ptr<dataset::Dataset> data_;
  inline static std::vector<Trained> trained_;
};

TEST_F(DdmVoteTest, VoteMatchesTwoPassReferenceBitwise) {
  for (const Trained& t : trained_) {
    auto ref = clone_ddm(*t.ddm);
    std::vector<std::vector<double>> want;
    for (const auto& image : data_->images)
      want.push_back(reference_vote(ref->model(), t.cfg, image));
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      util::ThreadPool pool(threads);
      auto ddm = clone_ddm(*t.ddm);
      ddm->set_thread_pool(&pool);
      for (std::size_t i = 0; i < data_->images.size(); ++i)
        expect_bits_eq(want[i], ddm->predict_proba(data_->images[i]),
                       "blend " + std::to_string(t.cfg.heatmap_blend) + ", " +
                           std::to_string(threads) + " threads, image " + std::to_string(i));
    }
  }
}

TEST_F(DdmVoteTest, HeatmapMatchesTwoPassReferenceForEveryClass) {
  const Trained& t = trained_.back();
  auto ref = clone_ddm(*t.ddm);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool pool(threads);
    auto ddm = clone_ddm(*t.ddm);
    ddm->set_thread_pool(&pool);
    for (std::size_t i = 0; i < data_->images.size(); i += 3) {
      const auto& image = data_->images[i];
      for (std::size_t cls = 0; cls < dataset::kNumSeverityClasses; ++cls) {
        const std::string what = std::to_string(threads) + " threads, image " +
                                 std::to_string(i) + ", class " + std::to_string(cls);
        const nn::Tensor3 want = reference_heatmap(ref->model(), image, cls);
        const nn::Tensor3 got = ddm->damage_heatmap(image, cls);
        ASSERT_EQ(want.shape(), got.shape()) << what;
        expect_bits_eq(want.data(), got.data(), what);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(reference_area(t.cfg, want)),
                  std::bit_cast<std::uint64_t>(ddm->activated_fraction(got)))
            << what;
      }
    }
  }
}

TEST_F(DdmVoteTest, InferenceLeavesParameterGradientsUntouched) {
  // Seed every gradient with a sentinel pattern: clearing or accumulating
  // into them would both show.
  auto ddm = clone_ddm(*trained_.back().ddm);
  Rng rng(29);
  std::vector<nn::Matrix> before;
  for (const nn::Param& p : ddm->model().params()) {
    for (double& v : p.grad->data()) v = rng.uniform(-1.0, 1.0);
    before.push_back(*p.grad);
  }
  for (std::size_t i = 0; i < 12; ++i) {
    const auto& image = data_->images[i];
    ddm->predict_proba(image);
    ddm->damage_heatmap(image, i % dataset::kNumSeverityClasses);
  }
  const std::vector<nn::Param> after = ddm->model().params();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t p = 0; p < after.size(); ++p)
    expect_bits_eq(before[p].data(), after[p].grad->data(), after[p].name);
}

TEST_F(DdmVoteTest, RetrainAfterInferenceEqualsRetrainWithout) {
  auto quiet = clone_ddm(*trained_.back().ddm);
  auto busy = clone_ddm(*trained_.back().ddm);
  for (std::size_t i = 0; i < 12; ++i) {
    busy->predict_proba(data_->images[i]);
    busy->damage_heatmap(data_->images[i], 2);
  }
  const std::vector<std::size_t> ids(data_->train_indices.begin(),
                                     data_->train_indices.begin() + 4);
  const std::vector<std::size_t> labels{2, 1, 0, 2};
  Rng rng_a(31), rng_b(31);
  quiet->retrain(*data_, ids, labels, rng_a);
  busy->retrain(*data_, ids, labels, rng_b);
  const std::vector<nn::Param> pq = quiet->model().params();
  const std::vector<nn::Param> pb = busy->model().params();
  ASSERT_EQ(pq.size(), pb.size());
  for (std::size_t p = 0; p < pq.size(); ++p)
    expect_bits_eq(pq[p].value->data(), pb[p].value->data(), pq[p].name);
  for (std::size_t i : data_->test_indices)
    expect_bits_eq(quiet->predict_proba(data_->image(i)), busy->predict_proba(data_->image(i)),
                   "vote after retrain, image " + std::to_string(i));
}

}  // namespace
}  // namespace crowdlearn::experts
