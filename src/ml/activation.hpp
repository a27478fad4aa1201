#pragma once
// Stateless activation layers.

#include <cstddef>

#include "ml/layer.hpp"

namespace airch::ml {

class ReluLayer final : public Layer {
 public:
  Matrix forward(const Matrix& x) override;
  Matrix infer(const Matrix& x) const override;
  Matrix backward(const Matrix& grad_out) override;
  std::size_t output_dim(std::size_t input_dim) const override { return input_dim; }

 private:
  Matrix output_;  // last forward() output; > 0 exactly where the input was
};

}  // namespace airch::ml
