#include "ml/dropout.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace airch::ml {

DropoutLayer::DropoutLayer(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (rate < 0.0 || rate >= 1.0) throw std::invalid_argument("dropout rate must be in [0, 1)");
}

Matrix DropoutLayer::forward(const Matrix& x) {
  if (rate_ == 0.0) return x;
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  // Fully overwritten below; avoid the re-zeroing resize when the batch
  // shape is unchanged.
  if (mask_.rows() != x.rows() || mask_.cols() != x.cols()) mask_.resize(x.rows(), x.cols());
  Matrix y = x;
  // The mask draw MUST stay a single sequential loop: reproducibility of a
  // training run pins the order in which rng_ is consumed, so only the
  // mask *application* below is eligible for the parallel element loops.
  for (std::size_t i = 0; i < y.size(); ++i) {
    const bool keep = rng_.uniform() >= rate_;
    mask_.data()[i] = keep ? keep_scale : 0.0f;
    y.data()[i] *= mask_.data()[i];
  }
  return y;
}

Matrix DropoutLayer::backward(const Matrix& grad_out) {
  if (rate_ == 0.0) return grad_out;
  AIRCH_ASSERT(grad_out.rows() == mask_.rows() && grad_out.cols() == mask_.cols());
  Matrix g = grad_out;
  float* gd = g.data();
  const float* md = mask_.data();
  const std::size_t cols = g.cols();
  parallel_rows(g.rows(), cols, [gd, md, cols](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0 * cols; i < r1 * cols; ++i) gd[i] *= md[i];
  });
  return g;
}

}  // namespace airch::ml
