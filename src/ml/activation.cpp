#include "ml/activation.hpp"

#include "common/check.hpp"

namespace airch::ml {

Matrix ReluLayer::forward(const Matrix& x) {
  Matrix y = infer(x);
  // Copy-assign, not move: steady-state batches share one shape, so the
  // cache's storage is reused instead of reallocated every step.
  output_ = y;
  return y;
}

Matrix ReluLayer::infer(const Matrix& x) const {
  Matrix y = x;
  float* yd = y.data();
  const std::size_t cols = x.cols();
  // Pure elementwise op: row-partitioning is trivially deterministic.
  parallel_rows(x.rows(), cols, [yd, cols](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0 * cols; i < r1 * cols; ++i) {
      if (!(yd[i] > 0.0f)) yd[i] = 0.0f;
    }
  });
  return y;
}

Matrix ReluLayer::backward(const Matrix& grad_out) {
  AIRCH_ASSERT(grad_out.rows() == output_.rows() && grad_out.cols() == output_.cols());
  Matrix g = grad_out;
  float* gd = g.data();
  const float* yd = output_.data();
  const std::size_t cols = g.cols();
  // Multiply by 1.0f or 0.0f rather than select, so the result is
  // bit-identical to the float-mask multiply, -0.0f and NaN included.
  parallel_rows(g.rows(), cols, [gd, yd, cols](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0 * cols; i < r1 * cols; ++i) gd[i] *= yd[i] > 0.0f ? 1.0f : 0.0f;
  });
  return g;
}

}  // namespace airch::ml
