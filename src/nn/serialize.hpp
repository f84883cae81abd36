#pragma once
// Model persistence for Sequential networks, inside the checkpoint container
// (src/ckpt/io.hpp, docs/CHECKPOINTING.md).
//
// A model is its layer count, then one record per layer: the type tag
// (Layer::name()), the structural sizes as u64 (a Dropout rate as f64), then,
// for trainable layers, each parameter matrix as rows, cols and the raw
// IEEE-754 values (Writer::vec_f64), so a round trip is bit-exact. The
// container carries the format version.
//
// load_model checks every declared size against the bytes left in the
// payload and against the layer's own geometry before it builds a layer, so
// a crafted header cannot force a large allocation. Every decode failure is
// ckpt::CkptError(kMalformed).

#include "nn/sequential.hpp"

namespace crowdlearn::ckpt {
class Writer;
class Reader;
}  // namespace crowdlearn::ckpt

namespace crowdlearn::nn {

/// Append a model's layer records (architecture + learned parameters).
/// Throws std::logic_error for an empty model or a layer type the format has
/// no record for.
void save_model(const Sequential& model, ckpt::Writer& w);

/// Rebuild a model written by save_model, consuming exactly its records.
Sequential load_model(ckpt::Reader& r);

}  // namespace crowdlearn::nn
