#include <gtest/gtest.h>

#include "nn/conv.hpp"

namespace crowdlearn::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// Same numeric gradient checker as in test_layers, duplicated locally to
/// keep each test binary self-contained. Backward requires a training
/// forward — inference passes no longer retain the backward scratch.
void check_gradients(Layer& layer, Matrix input, double tol = 1e-4) {
  const double eps = 1e-6;
  auto loss_of = [&](const Matrix& x) {
    return 0.5 * layer.forward(x, false).squared_norm();
  };
  Matrix out = layer.forward(input, true);
  for (Param p : layer.params()) p.grad->fill(0.0);
  const Matrix grad_in = layer.backward(out);

  for (std::size_t i = 0; i < input.data().size(); ++i) {
    const double orig = input.data()[i];
    input.data()[i] = orig + eps;
    const double up = loss_of(input);
    input.data()[i] = orig - eps;
    const double down = loss_of(input);
    input.data()[i] = orig;
    EXPECT_NEAR(grad_in.data()[i], (up - down) / (2 * eps), tol);
  }
  layer.forward(input, true);
  for (Param p : layer.params()) p.grad->fill(0.0);
  layer.backward(layer.forward(input, true));
  for (Param p : layer.params()) {
    for (std::size_t i = 0; i < p.value->data().size(); ++i) {
      const double orig = p.value->data()[i];
      p.value->data()[i] = orig + eps;
      const double up = loss_of(input);
      p.value->data()[i] = orig - eps;
      const double down = loss_of(input);
      p.value->data()[i] = orig;
      EXPECT_NEAR(p.grad->data()[i], (up - down) / (2 * eps), tol) << p.name;
    }
  }
}

TEST(Shape3, FlatIndexing) {
  const Shape3 s{2, 3, 4};
  EXPECT_EQ(s.size(), 24u);
  EXPECT_EQ(s.flat(0, 0, 0), 0u);
  EXPECT_EQ(s.flat(1, 2, 3), 23u);
  EXPECT_EQ(s.flat(1, 0, 0), 12u);
  EXPECT_THROW(s.flat(2, 0, 0), std::out_of_range);
}

TEST(Tensor3, ChannelMean) {
  Tensor3 t(Shape3{2, 2, 2});
  for (std::size_t i = 0; i < 4; ++i) t.data()[i] = 1.0;      // channel 0
  for (std::size_t i = 4; i < 8; ++i) t.data()[i] = 3.0;      // channel 1
  EXPECT_DOUBLE_EQ(t.channel_mean(0), 1.0);
  EXPECT_DOUBLE_EQ(t.channel_mean(1), 3.0);
  EXPECT_THROW(t.channel_mean(2), std::out_of_range);
}

TEST(Conv2D, IdentityKernelReproducesInput) {
  Rng rng(1);
  const Shape3 in{1, 4, 4};
  Conv2D conv(in, 1, 3, rng);
  // Set the kernel to a centered delta and bias to 0.
  Matrix& w = const_cast<Matrix&>(conv.kernels());
  w.fill(0.0);
  w(0, 4) = 1.0;  // center of the 3x3 kernel
  // Zero the bias via params().
  for (Param p : conv.params())
    if (p.name == "Conv2D.b") p.value->fill(0.0);

  Matrix x = random_matrix(2, 16, rng);
  const Matrix y = conv.forward(x, false);
  for (std::size_t i = 0; i < x.data().size(); ++i)
    EXPECT_NEAR(y.data()[i], x.data()[i], 1e-12);
}

TEST(Conv2D, SamePaddingPreservesShape) {
  Rng rng(2);
  Conv2D conv({3, 6, 6}, 5, 3, rng);
  EXPECT_EQ(conv.out_shape(), (Shape3{5, 6, 6}));
  EXPECT_EQ(conv.input_size(), 108u);
  EXPECT_EQ(conv.output_size(), 180u);
  EXPECT_THROW(Conv2D({1, 4, 4}, 1, 2, rng), std::invalid_argument);  // even kernel
  EXPECT_THROW(Conv2D({1, 4, 4}, 0, 3, rng), std::invalid_argument);
}

TEST(Conv2D, GradientCheck) {
  Rng rng(3);
  Conv2D conv({2, 4, 4}, 3, 3, rng);
  check_gradients(conv, random_matrix(2, 32, rng));
}

TEST(Conv2D, BackwardAfterInferenceForwardThrows) {
  Rng rng(7);
  Conv2D conv({2, 4, 4}, 3, 3, rng);
  const Matrix x = random_matrix(2, 32, rng);
  const Matrix y = conv.forward(x, /*training=*/false);
  EXPECT_THROW(conv.backward(y), std::logic_error);
  // A training forward re-arms backward.
  const Matrix yt = conv.forward(x, /*training=*/true);
  EXPECT_NO_THROW(conv.backward(yt));
}

TEST(ReLU, LastInputExposesConvOutput) {
  // Grad-CAM reads a conv's activations from the ReLU right above it.
  Rng rng(4);
  Conv2D conv({1, 4, 4}, 2, 3, rng);
  ReLU relu(conv.output_size());
  EXPECT_THROW(relu.last_input(), std::logic_error);
  const Matrix x = random_matrix(3, 16, rng);
  const Matrix y = conv.forward(x, false);
  relu.forward(y, false);
  const Matrix& act = relu.last_input();
  ASSERT_EQ(act.rows(), 3u);
  ASSERT_EQ(act.cols(), conv.output_size());
  for (std::size_t i = 0; i < act.size(); ++i) EXPECT_EQ(act.data()[i], y.data()[i]);
}

TEST(MaxPool2D, ForwardPicksMaxima) {
  MaxPool2D pool({1, 4, 4});
  Matrix x(1, 16);
  for (std::size_t i = 0; i < 16; ++i) x(0, i) = static_cast<double>(i);
  const Matrix y = pool.forward(x, false);
  EXPECT_EQ(y.cols(), 4u);
  EXPECT_DOUBLE_EQ(y(0, 0), 5.0);   // max of {0,1,4,5}
  EXPECT_DOUBLE_EQ(y(0, 3), 15.0);  // max of {10,11,14,15}
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D pool({1, 2, 2});
  Matrix x = Matrix::from_rows({{1.0, 9.0, 3.0, 2.0}});
  pool.forward(x, false);
  Matrix g(1, 1, 5.0);
  const Matrix gx = pool.backward(g);
  EXPECT_DOUBLE_EQ(gx(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(gx(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(gx(0, 2), 0.0);
}

TEST(MaxPool2D, RequiresEvenDimensions) {
  EXPECT_THROW(MaxPool2D({1, 3, 4}), std::invalid_argument);
}

TEST(GlobalAvgPool, ForwardAndBackward) {
  GlobalAvgPool gap({2, 2, 2});
  Matrix x = Matrix::from_rows({{1, 2, 3, 4, 10, 10, 10, 10}});
  const Matrix y = gap.forward(x, false);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 10.0);

  Matrix g = Matrix::from_rows({{4.0, 8.0}});
  const Matrix gx = gap.backward(g);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(gx(0, i), 1.0);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(gx(0, i), 2.0);
}

TEST(ConvLayers, CloneIndependence) {
  Rng rng(5);
  Conv2D conv({1, 4, 4}, 2, 3, rng);
  const Matrix x = random_matrix(1, 16, rng);
  auto copy = conv.clone();
  const Matrix before = copy->forward(x, false);
  const_cast<Matrix&>(conv.kernels()).fill(0.0);
  const Matrix after = copy->forward(x, false);
  for (std::size_t i = 0; i < before.data().size(); ++i)
    EXPECT_DOUBLE_EQ(before.data()[i], after.data()[i]);
}

}  // namespace
}  // namespace crowdlearn::nn
