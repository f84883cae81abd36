// Binary model records (src/nn/serialize.hpp): bit-exact round trips through
// ckpt::Writer / ckpt::Reader, and typed, allocation-free rejection of
// corrupt or crafted layer headers.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>

#include "ckpt/io.hpp"
#include "experts/ddm.hpp"
#include "nn/conv.hpp"
#include "nn/serialize.hpp"

namespace {
// Largest single heap request since the last reset. The crafted-header cases
// require the decoder to refuse a header before allocating anything it sizes.
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t n) {
  std::size_t prev = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > prev && !g_largest_alloc.compare_exchange_weak(prev, n)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Out of line, so the compiler does not pair an inlined free() with the
// operator new call site and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace crowdlearn::nn {
namespace {

using ckpt::CkptErrc;
using ckpt::CkptError;

Sequential make_cnn(Rng& rng) {
  const Shape3 in{1, 8, 8};
  Sequential m;
  auto conv = std::make_unique<Conv2D>(in, 4, 3, rng);
  const Shape3 s1 = conv->out_shape();
  m.add(std::move(conv));
  m.add(std::make_unique<ReLU>(s1.size()));
  auto pool = std::make_unique<MaxPool2D>(s1);
  const Shape3 s2 = pool->out_shape();
  m.add(std::move(pool));
  m.add(std::make_unique<Dense>(s2.size(), 10, rng));
  m.add(std::make_unique<Tanh>(10));
  m.add(std::make_unique<Dense>(10, 3, rng));
  return m;
}

Sequential round_trip(const Sequential& m) {
  ckpt::Writer w;
  save_model(m, w);
  ckpt::Reader r(w.payload());
  Sequential back = load_model(r);
  r.expect_end();
  return back;
}

void expect_bits_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]), std::bit_cast<std::uint64_t>(b.data()[i]))
        << "element " << i;
}

void expect_params_bits_equal(Sequential& a, Sequential& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (std::size_t l = 0; l < a.num_layers(); ++l) {
    EXPECT_EQ(a.layer(l).name(), b.layer(l).name());
    const std::vector<Param> pa = a.layer(l).params();
    const std::vector<Param> pb = b.layer(l).params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t p = 0; p < pa.size(); ++p) expect_bits_equal(*pa[p].value, *pb[p].value);
  }
}

/// Decode `payload` as a model; returns the typed failure code. Also checks
/// that no single allocation during the attempt exceeded `max_alloc` bytes.
CkptErrc load_failure(const std::string& payload, std::size_t max_alloc = 4096) {
  ckpt::Reader r(payload);
  g_largest_alloc.store(0);
  try {
    (void)load_model(r);
  } catch (const CkptError& e) {
    EXPECT_LE(g_largest_alloc.load(), max_alloc) << e.what();
    return e.code();
  }
  ADD_FAILURE() << "expected CkptError";
  return CkptErrc::kIo;
}

/// One Dense record with every field explicit, so each case below corrupts
/// exactly one of them.
struct DenseRecord {
  std::uint64_t in = 2, out = 3;
  std::uint64_t w_rows = 2, w_cols = 3, w_len = 6;
  std::uint64_t b_rows = 1, b_cols = 3, b_len = 3;

  std::string payload() const {
    ckpt::Writer w;
    w.u64(1);  // layer count
    w.str("Dense");
    w.u64(in);
    w.u64(out);
    w.u64(w_rows);
    w.u64(w_cols);
    w.vec_f64(std::vector<double>(w_len, 0.25));
    w.u64(b_rows);
    w.u64(b_cols);
    w.vec_f64(std::vector<double>(b_len, 0.5));
    return w.payload();
  }
};

/// A Conv2D record over a (1, 4, 4) input: 2 output channels, 3x3 kernels.
struct ConvRecord {
  std::uint64_t in_c = 1, in_h = 4, in_w = 4, out_c = 2, kernel = 3;
  std::uint64_t w_rows = 2, w_cols = 9, b_cols = 2;

  std::string payload() const {
    ckpt::Writer w;
    w.u64(1);
    w.str("Conv2D");
    w.u64(in_c);
    w.u64(in_h);
    w.u64(in_w);
    w.u64(out_c);
    w.u64(kernel);
    w.u64(w_rows);
    w.u64(w_cols);
    w.vec_f64(std::vector<double>(w_rows * w_cols, 0.1));
    w.u64(1);
    w.u64(b_cols);
    w.vec_f64(std::vector<double>(b_cols, 0.0));
    return w.payload();
  }
};

TEST(Serialize, RoundTripReproducesPredictionsExactly) {
  Rng rng(1);
  Sequential m = make_cnn(rng);
  Matrix x(3, 64);
  for (double& v : x.data()) v = rng.uniform(0.0, 1.0);
  const Matrix before = m.predict_proba(x);

  Sequential loaded = round_trip(m);
  ASSERT_EQ(loaded.num_layers(), m.num_layers());
  ASSERT_EQ(loaded.input_size(), m.input_size());
  expect_bits_equal(before, loaded.predict_proba(x));
  expect_params_bits_equal(m, loaded);
}

TEST(Serialize, RoundTripPreservesTrainedWeights) {
  Rng rng(2);
  Sequential m;
  m.add(std::make_unique<Dense>(2, 8, rng));
  m.add(std::make_unique<ReLU>(8));
  m.add(std::make_unique<Dense>(8, 2, rng));
  Matrix x(20, 2);
  std::vector<std::size_t> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-1, 1);
    y[i] = x(i, 0) > 0.0 ? 1u : 0u;
  }
  TrainConfig cfg;
  cfg.epochs = 20;
  m.fit(x, y, cfg, rng);

  Sequential loaded = round_trip(m);
  expect_params_bits_equal(m, loaded);
  expect_bits_equal(m.predict_proba(x), loaded.predict_proba(x));
}

TEST(Serialize, NegativeZeroAndNanPayloadSurvive) {
  // Raw IEEE-754 records: -0.0 keeps its sign bit and a NaN keeps its
  // payload, which no decimal round trip guarantees.
  Rng rng(6);
  Sequential m;
  auto dense = std::make_unique<Dense>(3, 2, rng);
  dense->weights()(0, 0) = -0.0;
  dense->weights()(1, 1) = std::bit_cast<double>(std::uint64_t{0x7FF80000DEADBEEFull});
  dense->bias()(0, 1) = std::numeric_limits<double>::denorm_min();
  m.add(std::move(dense));

  Sequential loaded = round_trip(m);
  expect_params_bits_equal(m, loaded);
  const auto& back = dynamic_cast<const Dense&>(loaded.layer(0));
  EXPECT_TRUE(std::signbit(back.weights()(0, 0)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.weights()(1, 1)), 0x7FF80000DEADBEEFull);
}

TEST(Serialize, DropoutRoundTrip) {
  Rng rng(3);
  Sequential m;
  m.add(std::make_unique<Dense>(4, 6, rng));
  m.add(std::make_unique<Dropout>(6, 0.3, rng));
  m.add(std::make_unique<Dense>(6, 2, rng));
  Sequential loaded = round_trip(m);
  EXPECT_EQ(loaded.layer(1).name(), "Dropout");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dynamic_cast<const Dropout&>(loaded.layer(1)).rate()),
            std::bit_cast<std::uint64_t>(0.3));
  // Inference is unaffected by dropout, so predictions match.
  Matrix x(1, 4, 0.5);
  expect_bits_equal(m.predict_proba(x), loaded.predict_proba(x));
}

TEST(Serialize, RejectsGarbageAndWrongVersions) {
  // Garbage, truncated and unknown-tag payloads behind a valid container are
  // kMalformed from the decoder...
  EXPECT_EQ(load_failure(""), CkptErrc::kMalformed);
  EXPECT_EQ(load_failure("not-a-model"), CkptErrc::kMalformed);
  {
    ckpt::Writer w;
    w.u64(0);  // zero layers
    EXPECT_EQ(load_failure(w.payload()), CkptErrc::kMalformed);
  }
  {
    const std::string full = DenseRecord{}.payload();
    for (std::size_t len = 0; len < full.size(); ++len)
      EXPECT_EQ(load_failure(full.substr(0, len)), CkptErrc::kMalformed) << "length " << len;
  }
  // ...and a model inside a container of any older version never reaches it.
  Rng rng(7);
  ckpt::Writer w;
  save_model(make_cnn(rng), w);
  const std::string image = ckpt::file_image(w);
  for (std::uint32_t version = 1; version < ckpt::kFormatVersion; ++version) {
    std::string old = image;
    old[8] = static_cast<char>(version);  // version u32 little-endian at offset 8
    try {
      ckpt::validate_image(old);
      ADD_FAILURE() << "expected kBadVersion for version " << version;
    } catch (const CkptError& e) {
      EXPECT_EQ(e.code(), CkptErrc::kBadVersion) << "version " << version;
    }
  }
}

TEST(Serialize, UnknownLayerTagIsMalformed) {
  ckpt::Writer w;
  w.u64(1);
  w.str("FluxCapacitor");
  w.u64(1);
  EXPECT_EQ(load_failure(w.payload()), CkptErrc::kMalformed);
}

TEST(Serialize, MatrixLengthDisagreeingWithDimensionsIsMalformed) {
  {
    ckpt::Reader r(DenseRecord{}.payload());
    EXPECT_EQ(load_model(r).layer(0).name(), "Dense");  // the unmodified record is valid
  }
  DenseRecord short_w;
  short_w.w_len = 5;
  EXPECT_EQ(load_failure(short_w.payload()), CkptErrc::kMalformed);
  DenseRecord long_b;
  long_b.b_len = 4;
  EXPECT_EQ(load_failure(long_b.payload()), CkptErrc::kMalformed);
}

TEST(Serialize, DenseHeaderDisagreeingWithMatricesIsMalformed) {
  DenseRecord transposed;
  transposed.w_rows = 3;
  transposed.w_cols = 2;
  EXPECT_EQ(load_failure(transposed.payload()), CkptErrc::kMalformed);
  DenseRecord wide_in;
  wide_in.in = 4;
  EXPECT_EQ(load_failure(wide_in.payload()), CkptErrc::kMalformed);
  DenseRecord tall_bias;
  tall_bias.b_rows = 3;
  tall_bias.b_cols = 1;
  EXPECT_EQ(load_failure(tall_bias.payload()), CkptErrc::kMalformed);
}

TEST(Serialize, Conv2DHeaderDisagreeingWithMatricesIsMalformed) {
  {
    ckpt::Reader r(ConvRecord{}.payload());
    EXPECT_EQ(load_model(r).layer(0).name(), "Conv2D");  // the unmodified record is valid
  }
  ConvRecord wrong_kernel;
  wrong_kernel.kernel = 5;  // the matrix still holds 3x3 kernels
  EXPECT_EQ(load_failure(wrong_kernel.payload()), CkptErrc::kMalformed);
  ConvRecord wrong_channels;
  wrong_channels.in_c = 2;
  EXPECT_EQ(load_failure(wrong_channels.payload()), CkptErrc::kMalformed);
  ConvRecord wrong_out;
  wrong_out.w_rows = 3;
  EXPECT_EQ(load_failure(wrong_out.payload()), CkptErrc::kMalformed);
  ConvRecord wrong_bias;
  wrong_bias.b_cols = 3;
  EXPECT_EQ(load_failure(wrong_bias.payload()), CkptErrc::kMalformed);
  ConvRecord even_kernel;  // consistent sizes, but the layer refuses them
  even_kernel.kernel = 2;
  even_kernel.w_cols = 4;
  EXPECT_EQ(load_failure(even_kernel.payload()), CkptErrc::kMalformed);
}

TEST(Serialize, HugeDeclaredDimensionsAreMalformedWithoutAllocating) {
  constexpr std::uint64_t kHuge = (std::uint64_t{1} << 63) - 1;
  DenseRecord huge_in;
  huge_in.in = kHuge;
  EXPECT_EQ(load_failure(huge_in.payload()), CkptErrc::kMalformed);
  DenseRecord huge_rows;
  huge_rows.w_rows = kHuge;
  EXPECT_EQ(load_failure(huge_rows.payload()), CkptErrc::kMalformed);
  DenseRecord overflowing;  // rows * cols wraps to 6 modulo 2^64
  overflowing.w_rows = (std::uint64_t{1} << 63) + 3;
  overflowing.w_cols = 2;
  EXPECT_EQ(load_failure(overflowing.payload()), CkptErrc::kMalformed);
  DenseRecord large_but_plausible;  // within the dimension cap, past the payload
  large_but_plausible.in = 4096;
  large_but_plausible.w_rows = 4096;
  large_but_plausible.w_len = 0;
  EXPECT_EQ(load_failure(large_but_plausible.payload()), CkptErrc::kMalformed);
  ConvRecord huge_shape;
  huge_shape.in_h = kHuge;
  EXPECT_EQ(load_failure(huge_shape.payload()), CkptErrc::kMalformed);
  {
    ckpt::Writer w;  // a vector length near 2^63 on an otherwise valid header
    w.u64(1);
    w.str("Dense");
    w.u64(2);
    w.u64(3);
    w.u64(2);
    w.u64(3);
    w.u64(kHuge);
    EXPECT_EQ(load_failure(w.payload()), CkptErrc::kMalformed);
  }
  {
    ckpt::Writer w;
    w.u64(kHuge);  // layer count
    EXPECT_EQ(load_failure(w.payload()), CkptErrc::kMalformed);
  }
}

TEST(Serialize, FileRoundTrip) {
  // A model through a checkpoint file: the container's CRC and version
  // guard the records on disk.
  Rng rng(4);
  Sequential m = make_cnn(rng);
  const std::string path = ::testing::TempDir() + "/crowdlearn_model.ckpt";
  ckpt::Writer w;
  save_model(m, w);
  w.write_file(path);
  ckpt::Reader r(ckpt::read_file(path));
  Sequential loaded = load_model(r);
  r.expect_end();
  std::remove(path.c_str());
  expect_params_bits_equal(m, loaded);
  try {
    ckpt::read_file("/nonexistent/dir/model.ckpt");
    FAIL() << "expected kIo";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), CkptErrc::kIo);
  }
}

TEST(Serialize, ExpertSaveLoadKeepsGradCamWorking) {
  dataset::DatasetConfig dcfg;
  dcfg.total_images = 60;
  dcfg.train_images = 45;
  const dataset::Dataset data = dataset::generate_dataset(dcfg);

  experts::DdmConfig fast;
  fast.train.epochs = 3;
  experts::DdmClassifier ddm(fast);
  Rng rng(5);
  ddm.train(data, data.train_indices, rng);

  experts::DdmClassifier restored(fast);
  restored.load_state_payload(ddm.state_payload());
  EXPECT_TRUE(restored.is_trained());
  EXPECT_TRUE(restored.state_payload() == ddm.state_payload());

  const auto& probe = data.image(data.test_indices[0]);
  const auto a = ddm.predict_proba(probe);
  const auto b = restored.predict_proba(probe);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[c]), std::bit_cast<std::uint64_t>(b[c]));
  // Grad-CAM still functions on the restored model (layer index relocated).
  const nn::Tensor3 cam = restored.damage_heatmap(probe, 2);
  EXPECT_EQ(cam.shape().height, 8u);
}

TEST(Serialize, SaveBeforeTrainThrows) {
  // An empty network has no records a load could accept, so saving one is a
  // programming error. An untrained expert saves no network at all and
  // restores as untrained.
  ckpt::Writer w;
  EXPECT_THROW(save_model(Sequential{}, w), std::logic_error);

  experts::DdmClassifier untrained;
  experts::DdmClassifier restored;
  restored.load_state_payload(untrained.state_payload());
  EXPECT_FALSE(restored.is_trained());
}

}  // namespace
}  // namespace crowdlearn::nn
