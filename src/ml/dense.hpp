#pragma once
// Fully-connected layer: y = x W + b.

#include <cstddef>
#include <vector>

#include "ml/layer.hpp"

namespace airch::ml {

class DenseLayer final : public Layer {
 public:
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  Matrix forward(const Matrix& x) override;
  Matrix infer(const Matrix& x) const override;
  Matrix backward(const Matrix& grad_out) override;
  std::vector<ParamRef> params() override;
  std::vector<ConstParamRef> params() const override;
  std::size_t output_dim(std::size_t input_dim) const override;

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }
  const Matrix& weights() const { return w_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  Matrix w_;                    // in_dim x out_dim
  std::vector<float> b_;        // out_dim
  // Gradients: empty until the first backward(), so a model that only
  // infers (a loaded, served one) carries no gradient copy.
  Matrix w_grad_;
  std::vector<float> b_grad_;
  Matrix cached_input_;
};

}  // namespace airch::ml
