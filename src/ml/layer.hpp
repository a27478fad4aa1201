#pragma once
// Layer abstraction for the float part of a network (everything after the
// embedding front-end). infer() is each layer's one implementation of its
// op; the training forward() is infer() plus the cache that the following
// backward() reads. One forward/backward pair per batch.

#include <cstddef>
#include <memory>
#include <vector>

#include "ml/matrix.hpp"

namespace airch::ml {

/// A view of one trainable parameter tensor and its gradient, consumed by
/// optimizers. The pointed-to storage lives inside the layer. Layers
/// allocate gradient storage on their first backward(); until then `grad`
/// is null, so a model that is only loaded and served carries no gradient
/// copy (optimizers reject a null grad).
struct ParamRef {
  float* value = nullptr;
  float* grad = nullptr;
  std::size_t size = 0;
};

/// Read-only view of one parameter tensor (serialization path): no grad
/// pointer and no mutable access, so a const network can be saved without
/// const_cast.
struct ConstParamRef {
  const float* value = nullptr;
  std::size_t size = 0;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Training forward for `x` (batch rows): infer(x) plus whatever
  /// backward() needs. Dropout is the one layer whose training output
  /// differs from infer(): it draws and applies a fresh mask.
  virtual Matrix forward(const Matrix& x) = 0;

  /// Inference forward with NO side effects: nothing is cached for a later
  /// backward(), so concurrent infer() calls on one shared layer are
  /// race-free (the serving path; see FeedForwardNet::infer_logits).
  virtual Matrix infer(const Matrix& x) const = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must be called after forward() on the same batch.
  virtual Matrix backward(const Matrix& grad_out) = 0;

  /// Trainable parameters (empty for stateless layers); each grad is null
  /// until the first backward().
  virtual std::vector<ParamRef> params() { return {}; }
  /// Read-only parameter views (empty for stateless layers).
  virtual std::vector<ConstParamRef> params() const { return {}; }

  virtual std::size_t output_dim(std::size_t input_dim) const = 0;
};

}  // namespace airch::ml
