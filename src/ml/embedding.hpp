#pragma once
// Per-feature embedding front-end (the "trained embedding" of the paper's
// Fig. 2). Each of the F integer input features has its own table mapping
// a bucketized feature value to a dim-wide dense vector; the F vectors are
// concatenated into the MLP input.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/layer.hpp"
#include "ml/matrix.hpp"

namespace airch::ml {

/// Row-major batch of integer feature indices (batch x features).
struct IntBatch {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int32_t> data;

  std::int32_t operator()(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
  std::int32_t& operator()(std::size_t r, std::size_t c) { return data[r * cols + c]; }
  void resize(std::size_t r, std::size_t c) {
    rows = r;
    cols = c;
    data.assign(r * c, 0);
  }
};

class EmbeddingBag {
 public:
  /// vocab_sizes[f] = number of buckets for feature f; dim = vector width.
  EmbeddingBag(std::vector<int> vocab_sizes, std::size_t dim, Rng& rng);

  /// Training forward: infer() plus the cached indices backward() reads.
  Matrix forward(const IntBatch& indices);

  /// (batch x F) indices -> (batch x F*dim) concatenated embeddings.
  /// Indices are clamped into the vocab range defensively. Caches nothing,
  /// so concurrent infer() calls on one shared bag are race-free.
  Matrix infer(const IntBatch& indices) const;

  /// Accumulates gradients for the rows touched by the last forward().
  void backward(const Matrix& grad_out);

  /// Parameter views; each grad is null until the first backward().
  std::vector<ParamRef> params();
  /// Read-only parameter views (serialization from a const model).
  std::vector<ConstParamRef> params() const;

  std::size_t output_dim() const { return vocab_sizes_.size() * dim_; }
  std::size_t dim() const { return dim_; }
  std::size_t num_features() const { return vocab_sizes_.size(); }

 private:
  std::vector<int> vocab_sizes_;
  std::size_t dim_;
  std::vector<Matrix> tables_;       // per feature: vocab x dim
  std::vector<Matrix> table_grads_;  // same shapes; empty until the first backward()
  IntBatch cached_indices_;
};

}  // namespace airch::ml
