#include "nn/serialize.hpp"

#include <stdexcept>

#include "ckpt/io.hpp"
#include "nn/conv.hpp"

namespace crowdlearn::nn {

namespace {

// Ceiling on any declared element count. Far above every network this
// library builds; it only rejects corrupt or crafted headers, and keeps every
// product of two checked sizes below 2^52.
constexpr std::uint64_t kMaxElements = std::uint64_t{1} << 26;
constexpr std::uint64_t kMaxLayers = 1024;

[[noreturn]] void malformed(const std::string& what) {
  throw ckpt::CkptError(ckpt::CkptErrc::kMalformed, "model: " + what);
}

std::size_t read_dim(ckpt::Reader& r) {
  const std::uint64_t v = r.u64();
  if (v == 0 || v > kMaxElements) malformed("implausible dimension " + std::to_string(v));
  return static_cast<std::size_t>(v);
}

/// a * b for sizes already bounded by kMaxElements; rejects products past it.
std::size_t checked_product(std::size_t a, std::size_t b) {
  if (a > kMaxElements / b) malformed("implausible size");
  return a * b;
}

void write_matrix(ckpt::Writer& w, const Matrix& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  w.vec_f64(m.data());
}

Matrix read_matrix(ckpt::Reader& r) {
  const std::size_t rows = read_dim(r);
  const std::size_t cols = read_dim(r);
  const std::size_t n = checked_product(rows, cols);
  if (n > r.remaining() / 8) malformed("matrix larger than the payload");
  // Matrix refuses data whose length is not rows * cols (invalid_argument,
  // which load_model reports as kMalformed).
  return Matrix(rows, cols, r.vec_f64());
}

void write_shape(ckpt::Writer& w, const Shape3& s) {
  w.u64(s.channels);
  w.u64(s.height);
  w.u64(s.width);
}

Shape3 read_shape(ckpt::Reader& r) {
  Shape3 s;
  s.channels = read_dim(r);
  s.height = read_dim(r);
  s.width = read_dim(r);
  checked_product(checked_product(s.channels, s.height), s.width);
  return s;
}

void save_layer(ckpt::Writer& w, const Layer& layer) {
  w.str(layer.name());
  if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
    w.u64(dense->input_size());
    w.u64(dense->output_size());
    write_matrix(w, dense->weights());
    write_matrix(w, dense->bias());
  } else if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
    write_shape(w, conv->in_shape());
    w.u64(conv->out_shape().channels);
    w.u64(conv->kernel_size());
    write_matrix(w, conv->kernels());
    write_matrix(w, conv->bias());
  } else if (const auto* pool = dynamic_cast<const MaxPool2D*>(&layer)) {
    write_shape(w, pool->in_shape());
  } else if (const auto* gap = dynamic_cast<const GlobalAvgPool*>(&layer)) {
    write_shape(w, gap->in_shape());
  } else if (dynamic_cast<const ReLU*>(&layer) != nullptr ||
             dynamic_cast<const Tanh*>(&layer) != nullptr) {
    w.u64(layer.input_size());
  } else if (const auto* dropout = dynamic_cast<const Dropout*>(&layer)) {
    w.u64(dropout->input_size());
    w.f64(dropout->rate());
  } else {
    throw std::logic_error("nn::save_model: no record for layer type " + layer.name());
  }
}

std::unique_ptr<Layer> load_layer(ckpt::Reader& r) {
  const std::string tag = r.str();
  // Weight-carrying layers are constructed with a throwaway RNG and then
  // overwritten with the stored parameters, which are read (and checked
  // against the header) first.
  Rng dummy(0);
  if (tag == "Dense") {
    const std::size_t in = read_dim(r);
    const std::size_t out = read_dim(r);
    Matrix w = read_matrix(r);
    Matrix b = read_matrix(r);
    if (w.rows() != in || w.cols() != out || b.rows() != 1 || b.cols() != out)
      malformed("Dense parameter shape mismatch");
    auto dense = std::make_unique<Dense>(in, out, dummy);
    dense->weights() = std::move(w);
    dense->bias() = std::move(b);
    return dense;
  }
  if (tag == "Conv2D") {
    const Shape3 in = read_shape(r);
    const std::size_t out_c = read_dim(r);
    const std::size_t kernel = read_dim(r);
    checked_product(out_c, in.height * in.width);
    Matrix w = read_matrix(r);
    Matrix b = read_matrix(r);
    if (w.rows() != out_c || w.cols() != checked_product(in.channels, kernel * kernel) ||
        b.rows() != 1 || b.cols() != out_c)
      malformed("Conv2D parameter shape mismatch");
    auto conv = std::make_unique<Conv2D>(in, out_c, kernel, dummy);
    conv->kernels() = std::move(w);
    conv->bias() = std::move(b);
    return conv;
  }
  if (tag == "MaxPool2D") return std::make_unique<MaxPool2D>(read_shape(r));
  if (tag == "GlobalAvgPool") return std::make_unique<GlobalAvgPool>(read_shape(r));
  if (tag == "ReLU") return std::make_unique<ReLU>(read_dim(r));
  if (tag == "Tanh") return std::make_unique<Tanh>(read_dim(r));
  if (tag == "Dropout") {
    const std::size_t size = read_dim(r);
    const double rate = r.f64();
    if (!(rate >= 0.0 && rate < 1.0)) malformed("Dropout rate outside [0, 1)");
    return std::make_unique<Dropout>(size, rate, dummy);
  }
  malformed("unknown layer tag '" + tag + "'");
}

}  // namespace

void save_model(const Sequential& model, ckpt::Writer& w) {
  if (model.num_layers() == 0) throw std::logic_error("nn::save_model: empty model");
  w.u64(model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) save_layer(w, model.layer(i));
}

Sequential load_model(ckpt::Reader& r) {
  const std::uint64_t layers = r.u64();
  if (layers == 0 || layers > kMaxLayers)
    malformed("implausible layer count " + std::to_string(layers));
  Sequential model;
  try {
    for (std::uint64_t i = 0; i < layers; ++i) model.add(load_layer(r));
  } catch (const std::invalid_argument& e) {
    // A layer constructor or Sequential::add refused the geometry (even
    // kernel, odd pooling input, adjacent sizes that do not chain).
    malformed(e.what());
  }
  return model;
}

}  // namespace crowdlearn::nn
