#pragma once
// Adam over flat parameter views, and the per-epoch learning-rate
// schedule. The parameter list must be identical (same order, same sizes)
// on every step() call — Adam keeps per-parameter state indexed by
// position.

#include <vector>

#include "ml/layer.hpp"

namespace airch::ml {

class Adam {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  /// Applies one update using the gradients currently stored in `params`.
  /// Throws ContractViolation on a null grad (a layer before its first
  /// backward()) and std::logic_error if the parameter list changed.
  void step(const std::vector<ParamRef>& params);

  /// Learning-rate access for schedules; changing it mid-training is safe.
  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

 private:
  double lr_;
  double beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Per-epoch learning-rate schedule (epoch is 1-based).
struct ExponentialDecaySchedule {
  double initial = 1e-3;
  double decay = 0.9;  ///< lr = initial * decay^(epoch-1)
  double operator()(int epoch) const;
};

}  // namespace airch::ml
