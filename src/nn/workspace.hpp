#pragma once
// Reusable scratch buffers for the NN compute path.
//
// Every im2col/GEMM kernel needs intermediate matrices (column buffers,
// transposed weights, pre-bias output panels). Allocating them per call put a
// malloc/free pair inside the per-cycle hot loop; a Workspace instead owns
// one named buffer per (layer, slot) pair, sized on first use and reused —
// with capacity kept — forever after. Sequential owns one Workspace (on the
// heap, so the pointer handed to layers survives moves of the Sequential) and
// binds every layer to it; a standalone layer lazily creates a private one.
//
// The Workspace also carries the optional util::ThreadPool the kernels chunk
// their batch loops over. Scratch contents are transient within a single
// forward/backward call except where a layer explicitly retains a slot
// (Conv2D keeps its im2col buffer from forward(training=true) for backward).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "nn/matrix.hpp"

namespace crowdlearn::util {
class ThreadPool;
}

namespace crowdlearn::nn {

class Workspace {
 public:
  /// Scratch matrix for (layer_id, slot), reshaped to rows x cols. The
  /// backing allocation is reused across calls, and the returned reference
  /// is stable for the Workspace's lifetime (entries are heap-anchored, so
  /// registry growth never moves them).
  Matrix& buffer(std::size_t layer_id, std::size_t slot, std::size_t rows, std::size_t cols);

  /// Ping-pong activation buffers for Sequential::forward_ws (slot 0/1).
  /// Shaped by the layer writing into them, not here.
  Matrix& activation(std::size_t slot);

  /// Ping-pong input-gradient buffers for Sequential::backward_ws (slot
  /// 0/1), shaped by the layer writing into them.
  Matrix& gradient(std::size_t slot);

  /// Pool the kernels chunk batch loops over; nullptr = serial. Not owned.
  util::ThreadPool* pool() const { return pool_; }
  void set_pool(util::ThreadPool* p) { pool_ = p; }

  /// Number of buffer() calls that had to allocate (first use, or a request
  /// larger than every previous one). Steady-state reuse keeps this constant
  /// — the workspace-reuse tests assert exactly that.
  std::size_t grow_count() const { return grow_count_; }

 private:
  // Small flat registry (a handful of layers x a handful of slots): linear
  // lookup is allocation-free and faster than a hash map at this size.
  // unique_ptr anchors each Matrix so references survive registry growth.
  std::vector<std::pair<std::uint64_t, std::unique_ptr<Matrix>>> buffers_;
  Matrix activations_[2];
  Matrix gradients_[2];
  util::ThreadPool* pool_ = nullptr;
  std::size_t grow_count_ = 0;
};

}  // namespace crowdlearn::nn
