#pragma once
// Inverted dropout: forward() (training) zeroes and rescales, infer() is
// the identity.
// The paper notes its case-2 model "starts to overfit" after ~22 epochs;
// dropout is the standard counter-measure exposed through
// NeuralClassifier::Options.

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "ml/layer.hpp"

namespace airch::ml {

class DropoutLayer final : public Layer {
 public:
  /// rate in [0, 1): probability of zeroing an activation.
  DropoutLayer(double rate, std::uint64_t seed);

  Matrix forward(const Matrix& x) override;
  /// Identity: inverted dropout scales at training time so inference is a
  /// plain pass-through (and therefore trivially thread-safe).
  Matrix infer(const Matrix& x) const override { return x; }
  Matrix backward(const Matrix& grad_out) override;
  std::size_t output_dim(std::size_t input_dim) const override { return input_dim; }

  double rate() const { return rate_; }

 private:
  double rate_;
  Rng rng_;
  Matrix mask_;  // scaled keep-mask from the last forward()
};

}  // namespace airch::ml
