// Bitwise-equivalence and steady-state-allocation tests for the im2col+GEMM
// convolution path. The contract under test:
//
//   1. Conv2D produces byte-identical doubles to the naive reference kernels
//      (tests/oracle/naive_conv.hpp) — forward, grad_input, dw and db — at
//      any kernel size, batch size, gradient density and thread count, and a
//      whole model trains to the same bits with NaiveConv2D layers in place
//      of its Conv2D layers. The GEMM reduction and the input-gradient
//      scatter replay the naive accumulation order term for term (see
//      nn/conv_kernels.hpp).
//   2. The zero-skip shortcuts (`v != 0.0` / `a == 0.0` / `g == 0.0`) are
//      pinned: both paths drop 0 * x terms identically (including -0.0 and
//      x = inf), which is only sound under the finite-input contract that
//      Matrix::debug_check_finite enforces in debug builds.
//   3. Steady-state forwards and training passes (forward_ws + backward_ws)
//      through a Sequential allocate nothing: all scratch lives in the
//      model's nn::Workspace or the layers and is reused.
//   4. The two backward halves split cleanly: backward_input alone writes
//      the full backward's input-gradient bits and touches no parameter
//      gradient; backward_params alone accumulates the full backward's.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "nn/conv.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"
#include "oracle/naive_conv.hpp"
#include "util/thread_pool.hpp"

// --- Global allocation counter for the steady-state test -------------------
// Counts every operator-new in the process. The allocation-free assertions
// run single-threaded with no pool attached, so the count is exact there.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

// The replacements stay out of line, so the compiler never pairs an inlined
// malloc() with an inlined free() or operator delete call site and warns
// about a mismatch. Every delete forwards to the one unsized form.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace crowdlearn::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// Random matrix with ~1/4 exact zeros, so the skip branches actually fire.
Matrix sparse_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = random_matrix(rows, cols, rng);
  for (double& v : m.data())
    if (rng.uniform(0.0, 1.0) < 0.25) v = 0.0;
  return m;
}

/// Bitwise (not merely value) comparison: distinguishes -0.0 from +0.0 and
/// compares NaN payloads, which EXPECT_DOUBLE_EQ cannot.
void expect_bitwise_eq(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
              std::bit_cast<std::uint64_t>(b.data()[i]))
        << what << " differs at flat index " << i << ": " << a.data()[i] << " vs "
        << b.data()[i];
  }
}

struct ConvCase {
  Shape3 in;
  std::size_t out_channels;
  std::size_t kernel;
};

// 1x1, odd 3x3 and 5x5 kernels, single- and multi-channel geometries.
const ConvCase kCases[] = {
    {{1, 4, 4}, 2, 1},
    {{2, 6, 6}, 3, 3},
    {{3, 8, 8}, 4, 5},
    {{4, 5, 5}, 2, 3},
};

void zero_grads(Layer& layer) {
  for (Param p : layer.params()) p.grad->fill(0.0);
}

/// Parameter gradients of `naive` and `conv` must match bitwise.
void expect_grads_bitwise_eq(Layer& naive, Layer& conv) {
  const std::vector<Param> pr = naive.params();
  const std::vector<Param> pi = conv.params();
  ASSERT_EQ(pr.size(), pi.size());
  for (std::size_t p = 0; p < pr.size(); ++p)
    expect_bitwise_eq(*pr[p].grad, *pi[p].grad, pr[p].name.c_str());
}

TEST(NnKernels, ForwardMatchesNaiveBitwise) {
  for (const ConvCase& cs : kCases) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        Rng rng(100 + batch + threads);
        Conv2D conv(cs.in, cs.out_channels, cs.kernel, rng);
        const Matrix x = sparse_matrix(batch, cs.in.size(), rng);

        Matrix ref(batch, conv.output_size());
        oracle::naive_conv2d_forward(oracle::geometry_of(conv), conv.kernels(), conv.bias(), x,
                                     ref);

        util::ThreadPool pool(threads);
        Workspace ws;
        ws.set_pool(&pool);
        conv.bind_workspace(&ws, 0);
        const Matrix got = conv.forward(x, false);

        expect_bitwise_eq(ref, got, "forward");
      }
    }
  }
}

TEST(NnKernels, BackwardMatchesNaiveBitwise) {
  for (const ConvCase& cs : kCases) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        Rng rng(200 + batch + threads);
        Conv2D im2col(cs.in, cs.out_channels, cs.kernel, rng);
        oracle::NaiveConv2D naive(im2col);  // identical weights
        const Matrix x = sparse_matrix(batch, cs.in.size(), rng);
        // Zeros in the upstream gradient exercise the `g == 0.0` skip.
        const Matrix g = sparse_matrix(batch, cs.out_channels * cs.in.height * cs.in.width, rng);

        naive.forward(x, true);
        zero_grads(naive);
        const Matrix ref_gx = naive.backward(g);

        util::ThreadPool pool(threads);
        Workspace ws;
        ws.set_pool(&pool);
        im2col.bind_workspace(&ws, 0);
        im2col.forward(x, true);
        zero_grads(im2col);
        const Matrix got_gx = im2col.backward(g);

        expect_bitwise_eq(ref_gx, got_gx, "grad_input");
        expect_grads_bitwise_eq(naive, im2col);
      }
    }
  }
}

TEST(NnKernels, RepeatedTrainStepsStayBitwiseEquivalent) {
  // A few forward/backward rounds through the SAME conv instance: workspace
  // buffers are reused (not re-zeroed allocations), so this catches any
  // stale-state leak between iterations.
  Rng rng(7);
  Conv2D im2col({2, 6, 6}, 3, 3, rng);
  oracle::NaiveConv2D naive(im2col);
  util::ThreadPool pool(2);
  Workspace ws;
  ws.set_pool(&pool);
  im2col.bind_workspace(&ws, 0);
  for (int step = 0; step < 4; ++step) {
    const Matrix x = sparse_matrix(3, naive.input_size(), rng);
    const Matrix g = sparse_matrix(3, naive.output_size(), rng);
    naive.forward(x, true);
    const Matrix ref_gx = naive.backward(g);
    im2col.forward(x, true);
    const Matrix got_gx = im2col.backward(g);
    expect_bitwise_eq(ref_gx, got_gx, "grad_input");
    // dw/db accumulate across steps in both paths; compare the running sums.
    expect_grads_bitwise_eq(naive, im2col);
  }
}

/// Gradient with ~`zero_frac` exact zeros, plus one all-+0.0 sample row and
/// one sample row of mixed ±0.0 (when batch allows): the weight gradient's
/// padded ±0.0 terms and the zero skip must leave every bit as the naive
/// kernel does.
Matrix gradient_with_zero_rows(std::size_t batch, std::size_t cols, double zero_frac,
                               Rng& rng) {
  Matrix g = random_matrix(batch, cols, rng);
  for (double& v : g.data())
    if (rng.uniform(0.0, 1.0) < zero_frac) v = (rng.uniform(0.0, 1.0) < 0.5) ? 0.0 : -0.0;
  if (batch >= 2)
    for (std::size_t c = 0; c < cols; ++c) g(0, c) = 0.0;
  if (batch >= 3)
    for (std::size_t c = 0; c < cols; ++c) g(2, c) = (c % 2 == 0) ? -0.0 : 0.0;
  return g;
}

TEST(NnKernels, WeightGradMatchesNaiveAtEveryKernelSize) {
  // k in {1,3,5,7}; sparse and dense gradients; all-zero and ±0.0 sample
  // rows; 1/2/8 threads. dw, db and grad_input must equal the naive kernels
  // bitwise.
  const ConvCase cases[] = {
      {{1, 5, 5}, 3, 1}, {{2, 6, 6}, 4, 3}, {{3, 7, 7}, 2, 5}, {{2, 9, 9}, 3, 7}};
  for (const ConvCase& cs : cases) {
    for (double zero_frac : {0.9, 0.2}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        Rng rng(300 + cs.kernel * 10 + threads);
        Conv2D im2col(cs.in, cs.out_channels, cs.kernel, rng);
        oracle::NaiveConv2D naive(im2col);
        const Matrix x = sparse_matrix(4, cs.in.size(), rng);
        const Matrix g = gradient_with_zero_rows(4, naive.output_size(), zero_frac, rng);

        naive.forward(x, true);
        zero_grads(naive);
        const Matrix ref_gx = naive.backward(g);

        util::ThreadPool pool(threads);
        Workspace ws;
        ws.set_pool(&pool);
        im2col.bind_workspace(&ws, 0);
        im2col.forward(x, true);
        zero_grads(im2col);
        const Matrix got_gx = im2col.backward(g);

        expect_bitwise_eq(ref_gx, got_gx, "grad_input");
        expect_grads_bitwise_eq(naive, im2col);
      }
    }
  }
}

/// Gradient with exactly `nonzero` nonzero entries at random positions.
Matrix gradient_with_nonzeros(std::size_t rows, std::size_t cols, std::size_t nonzero,
                              Rng& rng) {
  std::vector<std::size_t> order(rows * cols);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  Matrix g(rows, cols);
  for (std::size_t i = 0; i < nonzero; ++i) g.data()[order[i]] = rng.uniform(-1.0, 1.0);
  return g;
}

TEST(NnKernels, InputGradientMatchesNaiveAtAnyDensity) {
  // Conv2D has one input-gradient route, the scatter loop. A gradient
  // exactly 25 % nonzero and a fully dense one must both give the naive
  // kernel's bits at 1/2/8 threads.
  for (const ConvCase& cs : kCases) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      Rng rng(350 + cs.kernel * 10 + threads);
      Conv2D conv(cs.in, cs.out_channels, cs.kernel, rng);
      util::ThreadPool pool(threads);
      Workspace ws;
      ws.set_pool(&pool);
      conv.bind_workspace(&ws, 0);
      const std::size_t batch = 4;
      const std::size_t size = batch * conv.output_size();  // a multiple of 4
      const Matrix quarter = gradient_with_nonzeros(batch, conv.output_size(), size / 4, rng);
      const Matrix dense = random_matrix(batch, conv.output_size(), rng);
      for (const Matrix* g : {&quarter, &dense}) {
        conv.forward(sparse_matrix(batch, cs.in.size(), rng), true);
        Matrix ref(batch, conv.input_size());
        oracle::naive_conv2d_grad_input(oracle::geometry_of(conv), conv.kernels(), *g, ref);
        Matrix got;
        conv.backward_input(*g, got);
        expect_bitwise_eq(ref, got, g == &quarter ? "25 % nonzero gradient" : "dense gradient");
      }
    }
  }
}

/// VGG16-like stack on 16x16 inputs: the benchmark shapes of bench_micro.
Sequential make_vgg16_like(Rng& rng) {
  const Shape3 in{1, 16, 16};
  Sequential model;
  model.add(std::make_unique<Conv2D>(in, 8, 3, rng));
  model.add(std::make_unique<ReLU>(Shape3{8, 16, 16}.size()));
  model.add(std::make_unique<MaxPool2D>(Shape3{8, 16, 16}));
  model.add(std::make_unique<Conv2D>(Shape3{8, 8, 8}, 16, 3, rng));
  model.add(std::make_unique<ReLU>(Shape3{16, 8, 8}.size()));
  model.add(std::make_unique<MaxPool2D>(Shape3{16, 8, 8}));
  model.add(std::make_unique<Dense>(Shape3{16, 4, 4}.size(), 48, rng));
  model.add(std::make_unique<ReLU>(48));
  model.add(std::make_unique<Dense>(48, 3, rng));
  return model;
}

TEST(NnKernels, SequentialTrainsToNaiveBitsAtAnyThreadCount) {
  // Two SGD steps through a VGG16-like stack must leave every parameter bit
  // where the same stack on NaiveConv2D layers leaves it, at 1/2/8 threads.
  Rng data_rng(43);
  const Matrix x = random_matrix(16, Shape3{1, 16, 16}.size(), data_rng);
  std::vector<std::size_t> y(16);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3;
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 8;  // two steps
  auto train = [&](Sequential& model) {
    Rng fit_rng(47);
    model.fit(x, y, cfg, fit_rng);
    std::vector<Matrix> out;
    for (Param p : model.params()) out.push_back(*p.value);
    return out;
  };
  Rng rng(41);
  const Sequential proto = make_vgg16_like(rng);
  Sequential naive = oracle::with_naive_convs(proto);
  const std::vector<Matrix> want = train(naive);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool pool(threads);
    Sequential model = proto.clone();
    model.set_thread_pool(&pool);
    const std::vector<Matrix> got = train(model);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t p = 0; p < want.size(); ++p)
      expect_bitwise_eq(want[p], got[p], "parameter after two steps");
  }
}

TEST(NnKernels, ParamsOnlyBackwardMatchesFullBackward) {
  // Sequential::backward_ws runs only backward_params on the first layer;
  // the parameter gradients it accumulates must be the full backward's bits.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Rng rng(400 + threads);
    Conv2D full({2, 6, 6}, 3, 3, rng);
    Conv2D params_only(full);
    Dense dense_full(12, 5, rng);
    Dense dense_params_only(dense_full);
    util::ThreadPool pool(threads);
    Workspace ws_a, ws_b;
    ws_a.set_pool(&pool);
    ws_b.set_pool(&pool);
    full.bind_workspace(&ws_a, 0);
    params_only.bind_workspace(&ws_b, 0);
    dense_full.bind_workspace(&ws_a, 1);
    dense_params_only.bind_workspace(&ws_b, 1);

    for (int step = 0; step < 3; ++step) {
      const Matrix x = sparse_matrix(5, full.input_size(), rng);
      const Matrix g = gradient_with_zero_rows(5, full.output_size(), 0.8, rng);
      full.forward(x, true);
      params_only.forward(x, true);
      full.backward(g);
      params_only.backward_params(g);

      const Matrix xd = sparse_matrix(5, 12, rng);
      const Matrix gd = random_matrix(5, 5, rng);
      dense_full.forward(xd, true);
      dense_params_only.forward(xd, true);
      dense_full.backward(gd);
      dense_params_only.backward_params(gd);
    }
    const std::vector<Param> a = full.params();
    const std::vector<Param> b = params_only.params();
    for (std::size_t p = 0; p < a.size(); ++p)
      expect_bitwise_eq(*a[p].grad, *b[p].grad, a[p].name.c_str());
    const std::vector<Param> da = dense_full.params();
    const std::vector<Param> db = dense_params_only.params();
    for (std::size_t p = 0; p < da.size(); ++p)
      expect_bitwise_eq(*da[p].grad, *db[p].grad, da[p].name.c_str());
  }
}

TEST(NnKernels, ReluAndMaxPoolBackwardIntoMatchBackward) {
  // backward_input writes through raw row pointers into a reused buffer
  // (here one left at a different shape by an earlier call), chunked by
  // sample over the pool; it must equal backward() and the element-wise
  // definition: ReLU passes g where x > 0, MaxPool routes g to each
  // window's first maximum.
  const Shape3 shape{3, 6, 6};
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    Rng rng(500 + threads);
    util::ThreadPool pool(threads);
    Workspace ws;
    ws.set_pool(&pool);
    const Matrix x = sparse_matrix(7, shape.size(), rng);
    Matrix reused(2, 3, 1.0);

    ReLU relu(shape.size());
    relu.bind_workspace(&ws, 0);
    relu.forward(x, true);
    const Matrix g = gradient_with_zero_rows(7, shape.size(), 0.3, rng);
    Matrix want(7, shape.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      want.data()[i] = x.data()[i] <= 0.0 ? 0.0 : g.data()[i];
    relu.backward_input(g, reused);
    expect_bitwise_eq(want, reused, "ReLU backward_input");
    expect_bitwise_eq(want, relu.backward(g), "ReLU backward");

    MaxPool2D pool2d(shape);
    pool2d.bind_workspace(&ws, 1);
    pool2d.forward(x, true);
    const Matrix gp = gradient_with_zero_rows(7, pool2d.output_size(), 0.3, rng);
    Matrix want_p(7, shape.size());
    for (std::size_t s = 0; s < 7; ++s)
      for (std::size_t c = 0; c < shape.channels; ++c)
        for (std::size_t y = 0; y < 3; ++y)
          for (std::size_t xx = 0; xx < 3; ++xx) {
            std::size_t best = shape.flat(c, 2 * y, 2 * xx);
            for (std::size_t dy = 0; dy < 2; ++dy)
              for (std::size_t dx = 0; dx < 2; ++dx) {
                const std::size_t f = shape.flat(c, 2 * y + dy, 2 * xx + dx);
                if (x(s, f) > x(s, best)) best = f;
              }
            want_p(s, best) += gp(s, (c * 3 + y) * 3 + xx);
          }
    pool2d.backward_input(gp, reused);
    expect_bitwise_eq(want_p, reused, "MaxPool2D backward_input");
    expect_bitwise_eq(want_p, pool2d.backward(gp), "MaxPool2D backward");
  }
}

/// The input half alone must write the bits the full backward returns, and
/// leave every parameter gradient as it found it.
void expect_input_half_matches_full(Layer& full, Layer& half, const Matrix& x,
                                    const Matrix& g, const char* what) {
  full.forward(x, true);
  half.forward(x, true);
  std::vector<Matrix> grads_before;
  for (const Param& p : half.params()) grads_before.push_back(*p.grad);
  const Matrix want = full.backward(g);
  Matrix got(1, 1, 7.0);  // stale contents and shape, as a reused buffer has
  half.backward_input(g, got);
  expect_bitwise_eq(want, got, what);
  const std::vector<Param> after = half.params();
  for (std::size_t p = 0; p < after.size(); ++p)
    expect_bitwise_eq(grads_before[p], *after[p].grad, after[p].name.c_str());
}

TEST(NnKernels, InputGradientPassMatchesFullBackwardForEveryLayer) {
  // Every layer type, batch 1 and 32, gradients with exact zeros plus an
  // all-+0.0 and a mixed ±0.0 row (batch 32), at 1 and 4 threads. Conv2D
  // runs a sparse and a dense gradient; the naive reference layer runs too.
  const Shape3 shape{3, 6, 6};
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(threads);
    Workspace ws_a, ws_b;
    ws_a.set_pool(&pool);
    ws_b.set_pool(&pool);
    for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      Rng rng(600 + batch + threads);
      auto check = [&](Layer& proto, double zero_frac, const char* what) {
        std::unique_ptr<Layer> full = proto.clone();
        std::unique_ptr<Layer> half = proto.clone();
        full->bind_workspace(&ws_a, 0);
        half->bind_workspace(&ws_b, 0);
        const Matrix x = sparse_matrix(batch, proto.input_size(), rng);
        const Matrix g = gradient_with_zero_rows(batch, proto.output_size(), zero_frac, rng);
        expect_input_half_matches_full(*full, *half, x, g, what);
      };
      Dense dense(37, 13, rng);  // 37 = 4 lanes of 8 plus a remainder of 5
      check(dense, 0.3, "Dense");
      Dense dense_wide(96, 48, rng);
      check(dense_wide, 0.6, "Dense 96x48");
      ReLU relu(shape.size());
      check(relu, 0.3, "ReLU");
      Tanh tanh_layer(shape.size());
      check(tanh_layer, 0.3, "Tanh");
      Dropout dropout(shape.size(), 0.25, rng);
      check(dropout, 0.3, "Dropout");
      MaxPool2D maxpool(shape);
      check(maxpool, 0.3, "MaxPool2D");
      GlobalAvgPool gap(shape);
      check(gap, 0.3, "GlobalAvgPool");
      Conv2D conv(shape, 4, 3, rng);
      check(conv, 0.9, "Conv2D sparse gradient");
      check(conv, 0.1, "Conv2D dense gradient");
      oracle::NaiveConv2D naive_conv(conv);
      check(naive_conv, 0.3, "NaiveConv2D");
    }
  }
}

TEST(NnKernels, DenseInputGradientIsTheGemmAgainstTransposedWeights) {
  // The row-major dot products of Dense::backward_input replay g x W^T term
  // for term (ascending j from +0.0, zero-skipping g), including the
  // remainder columns past the last group of eight.
  Rng rng(650);
  for (std::size_t in : {std::size_t{1}, std::size_t{8}, std::size_t{19}, std::size_t{384}}) {
    Dense dense(in, 11, rng);
    const Matrix x = sparse_matrix(5, in, rng);
    const Matrix g = gradient_with_zero_rows(5, 11, 0.4, rng);
    dense.forward(x, false);
    Matrix got;
    dense.backward_input(g, got);
    expect_bitwise_eq(g.matmul(dense.weights().transpose()), got, "Dense dX");
  }
}

// --- Zero-skip semantics ---------------------------------------------------

TEST(NnKernels, ZeroSkipDropsNonFiniteProductsIdentically) {
  // A zero input against an inf weight: the product 0*inf = NaN is DROPPED
  // by the skip in Conv2D and the naive kernel alike, so the output stays
  // finite. This is the pinned (intentional) semantics the finite-input
  // contract justifies.
  Rng rng(11);
  Conv2D conv({1, 4, 4}, 2, 3, rng);
  conv.kernels()(0, 4) = std::numeric_limits<double>::infinity();
  Matrix x(2, 16, 0.0);  // all-zero input: every product is skipped

#ifndef NDEBUG
  // Debug builds refuse the contract violation up front instead.
  EXPECT_THROW(conv.forward(x, false), std::domain_error);
#else
  const Matrix ref = oracle::NaiveConv2D(conv).forward(x, false);
  const Matrix got = conv.forward(x, false);

  expect_bitwise_eq(ref, got, "forward with inf weight");
  for (double v : got.data()) EXPECT_TRUE(std::isfinite(v));
  // Every output element is exactly its channel's bias — nothing else ran.
  for (std::size_t s = 0; s < got.rows(); ++s)
    for (std::size_t oc = 0; oc < 2u; ++oc)
      for (std::size_t p = 0; p < 16u; ++p)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got(s, oc * 16 + p)),
                  std::bit_cast<std::uint64_t>(conv.bias()(0, oc)));
#endif
}

TEST(NnKernels, NegativeZeroIsSkippedLikePositiveZero) {
  // `v != 0.0` and `a == 0.0` both treat -0.0 as zero (IEEE comparison), so
  // a -0.0 input contributes nothing in either path.
  Rng rng(13);
  Conv2D conv({1, 4, 4}, 2, 3, rng);
  Matrix x(1, 16, 0.0);
  for (double& v : x.data()) v = -0.0;

  const Matrix ref = oracle::NaiveConv2D(conv).forward(x, false);
  const Matrix got = conv.forward(x, false);
  expect_bitwise_eq(ref, got, "forward with -0.0 input");
  for (std::size_t oc = 0; oc < 2u; ++oc)
    for (std::size_t p = 0; p < 16u; ++p)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got(0, oc * 16 + p)),
                std::bit_cast<std::uint64_t>(conv.bias()(0, oc)));
}

TEST(NnKernels, DebugCheckFiniteEnforcesTheContract) {
  Matrix ok = Matrix::from_rows({{1.0, -2.5, 0.0}});
  EXPECT_NO_THROW(ok.debug_check_finite("ok"));
  Matrix with_nan = ok;
  with_nan(0, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(with_nan.debug_check_finite("nan"), std::domain_error);
  Matrix with_inf = ok;
  with_inf(0, 2) = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(with_inf.debug_check_finite("inf"), std::domain_error);
}

// --- Training-flag gating --------------------------------------------------

TEST(NnKernels, InferenceForwardKeepsGradCamCacheButNoBackwardState) {
  // Grad-CAM reads a conv's activations from the ReLU above it: after an
  // inference pass through conv -> ReLU, that ReLU's input is the conv's
  // output bit for bit...
  Rng rng(17);
  Conv2D conv({1, 4, 4}, 2, 3, rng);
  ReLU relu(conv.output_size());
  const Matrix x = random_matrix(2, 16, rng);
  const Matrix y = conv.forward(x, /*training=*/false);
  relu.forward(y, /*training=*/false);
  expect_bitwise_eq(y, relu.last_input(), "ReLU input after an inference forward");
  // ...but the conv's backward is refused (no backward state was retained).
  EXPECT_THROW(conv.backward(y), std::logic_error);
}

// --- Steady-state allocation behaviour -------------------------------------

Sequential make_small_cnn(Rng& rng) {
  const Shape3 in{1, 8, 8};
  Sequential model;
  model.add(std::make_unique<Conv2D>(in, 4, 3, rng));
  model.add(std::make_unique<ReLU>(Shape3{4, 8, 8}.size()));
  model.add(std::make_unique<MaxPool2D>(Shape3{4, 8, 8}));
  model.add(std::make_unique<Conv2D>(Shape3{4, 4, 4}, 6, 3, rng));
  model.add(std::make_unique<ReLU>(Shape3{6, 4, 4}.size()));
  model.add(std::make_unique<MaxPool2D>(Shape3{6, 4, 4}));
  model.add(std::make_unique<Dense>(Shape3{6, 2, 2}.size(), 10, rng));
  model.add(std::make_unique<ReLU>(10));
  model.add(std::make_unique<Dense>(10, 3, rng));
  return model;
}

TEST(NnKernels, SteadyStateForwardIsAllocationFree) {
  Rng rng(19);
  Sequential model = make_small_cnn(rng);
  const Matrix x = random_matrix(6, model.input_size(), rng);

  // Warm-up sizes every workspace buffer and activation cache.
  for (int i = 0; i < 3; ++i) model.forward_ws(x, false);
  const std::size_t grown = model.workspace().grow_count();

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const Matrix* last = nullptr;
  for (int i = 0; i < 5; ++i) last = &model.forward_ws(x, false);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "steady-state forward_ws allocated";
  EXPECT_EQ(model.workspace().grow_count(), grown) << "workspace kept growing";
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->rows(), 6u);
  EXPECT_EQ(last->cols(), 3u);
}

TEST(NnKernels, SteadyStateTrainingPassIsAllocationFree) {
  // A training forward plus backward_ws — the per-step work of
  // Sequential::fit minus batch assembly and the loss — reuses the
  // workspace's activation and gradient buffers and the layers' scratch.
  Rng rng(20);
  Sequential model = make_small_cnn(rng);
  const Matrix x = random_matrix(6, model.input_size(), rng);
  const Matrix g = random_matrix(6, model.output_size(), rng);

  for (int i = 0; i < 3; ++i) {
    model.forward_ws(x, true);
    model.backward_ws(g);
  }
  const std::size_t grown = model.workspace().grow_count();

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) {
    model.forward_ws(x, true);
    model.backward_ws(g);
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "steady-state training pass allocated";
  EXPECT_EQ(model.workspace().grow_count(), grown) << "workspace kept growing";
}

TEST(NnKernels, BackwardWsMatchesChainedBackwardBitwise) {
  // backward_ws (ping-pong gradient buffers, first layer params-only) must
  // accumulate the parameter gradients that chaining Layer::backward does.
  // The second, smaller step reuses buffers still holding the first step's
  // gradients.
  Rng rng(21);
  Sequential a = make_small_cnn(rng);
  Sequential b = a.clone();
  for (std::size_t batch : {std::size_t{4}, std::size_t{3}}) {
    const Matrix x = random_matrix(batch, a.input_size(), rng);
    const Matrix g = random_matrix(batch, a.output_size(), rng);
    a.forward_ws(x, true);
    a.backward_ws(g);
    b.forward(x, true);
    Matrix grad = g;
    for (std::size_t i = b.num_layers(); i-- > 0;) grad = b.layer(i).backward(grad);
  }
  const std::vector<Param> pa = a.params();
  const std::vector<Param> pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p)
    expect_bitwise_eq(*pa[p].grad, *pb[p].grad, pa[p].name.c_str());
}

TEST(NnKernels, WorkspaceGrowCountStabilizesAcrossBatchSizes) {
  Rng rng(23);
  Sequential model = make_small_cnn(rng);
  const Matrix small = random_matrix(2, model.input_size(), rng);
  const Matrix large = random_matrix(8, model.input_size(), rng);

  model.forward_ws(large, true);  // largest batch first: sizes everything
  const std::size_t grown = model.workspace().grow_count();
  model.forward_ws(small, true);  // shrinking reuses capacity
  model.forward_ws(large, true);  // growing back reuses it too
  EXPECT_EQ(model.workspace().grow_count(), grown);
}

// --- forward() / forward_ws() agreement ------------------------------------

TEST(NnKernels, ForwardWsMatchesForwardBitwise) {
  Rng rng(29);
  Sequential a = make_small_cnn(rng);
  Sequential b = a.clone();
  const Matrix x = random_matrix(3, a.input_size(), rng);
  const Matrix ya = a.forward(x, false);
  const Matrix& yb = b.forward_ws(x, false);
  expect_bitwise_eq(ya, yb, "forward vs forward_ws");
}

// --- Thread invariance of whole-model training -----------------------------

TEST(NnKernels, CnnTrainingIsThreadCountInvariant) {
  auto train = [](std::size_t threads) {
    Rng rng(31);
    Sequential model = make_small_cnn(rng);
    util::ThreadPool pool(threads);
    model.set_thread_pool(&pool);
    Rng data_rng(37);
    const Matrix x = random_matrix(12, model.input_size(), data_rng);
    std::vector<std::size_t> y(12);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3;
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 4;
    Rng fit_rng(41);
    model.fit(x, y, cfg, fit_rng);
    Matrix probs = model.predict_proba(x);
    std::vector<double> out = probs.data();
    for (Param p : model.params())
      out.insert(out.end(), p.value->data().begin(), p.value->data().end());
    return out;
  };
  const std::vector<double> t1 = train(1);
  const std::vector<double> t2 = train(2);
  const std::vector<double> t8 = train(8);
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(t1[i]), std::bit_cast<std::uint64_t>(t2[i]))
        << "1 vs 2 threads at " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(t1[i]), std::bit_cast<std::uint64_t>(t8[i]))
        << "1 vs 8 threads at " << i;
  }
}

}  // namespace
}  // namespace crowdlearn::nn
