#include "nn/workspace.hpp"

#include <algorithm>
#include <stdexcept>

namespace crowdlearn::nn {

Matrix& Workspace::buffer(std::size_t layer_id, std::size_t slot, std::size_t rows,
                          std::size_t cols) {
  if (slot >= 256) throw std::invalid_argument("Workspace::buffer: slot out of range");
  const std::uint64_t key = (static_cast<std::uint64_t>(layer_id) << 8) | slot;
  for (auto& [k, m] : buffers_) {
    if (k == key) {
      const std::size_t needed = rows * cols;
      if (needed > m->data().capacity()) {
        // Geometric growth: a serving workload that ramps batch sizes
        // (1 -> 64 -> 1024 images through the coalescer) would otherwise
        // reallocate-and-copy on every step up; doubling bounds the total
        // copy bill at O(final size) across any ramp.
        m->data().reserve(std::max(needed, 2 * m->data().capacity()));
        ++grow_count_;
      }
      m->reshape(rows, cols);
      return *m;
    }
  }
  ++grow_count_;
  buffers_.emplace_back(key, std::make_unique<Matrix>(rows, cols));
  return *buffers_.back().second;
}

Matrix& Workspace::activation(std::size_t slot) {
  if (slot >= 2) throw std::invalid_argument("Workspace::activation: slot out of range");
  return activations_[slot];
}

Matrix& Workspace::gradient(std::size_t slot) {
  if (slot >= 2) throw std::invalid_argument("Workspace::gradient: slot out of range");
  return gradients_[slot];
}

}  // namespace crowdlearn::nn
