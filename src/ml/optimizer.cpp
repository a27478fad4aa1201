#include "ml/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "common/check.hpp"

namespace airch::ml {

namespace {

// The Adam update is pure elementwise double math, so SIMD width never
// changes results — each element sees the identical IEEE operation
// sequence regardless of how many are processed per instruction. The
// per-target copies below only exist because the baseline build targets
// SSE2; fp-contract stays off (an FMA would round once where the scalar
// path rounds twice), and this file is built with -fno-math-errno so sqrt
// can vectorize (vsqrtpd computes the same correctly-rounded value, it
// just skips the errno bookkeeping). mi/vi are written back immediately
// after the float rounding, so reading the local is bit-equal to the
// seed's scalar store-then-reload loop, which the tests keep as their
// reference.
#define AIRCH_ADAM_BODY                                                                    \
  for (std::size_t i = 0; i < n; ++i) {                                                    \
    const double g = static_cast<double>(grad[i]);                                         \
    const float mi =                                                                       \
        static_cast<float>(beta1 * static_cast<double>(m[i]) + (1.0 - beta1) * g);         \
    const float vi =                                                                       \
        static_cast<float>(beta2 * static_cast<double>(v[i]) + (1.0 - beta2) * g * g);     \
    m[i] = mi;                                                                             \
    v[i] = vi;                                                                             \
    const double m_hat = static_cast<double>(mi) / bias1;                                  \
    const double v_hat = static_cast<double>(vi) / bias2;                                  \
    value[i] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));                 \
  }

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target("avx512f,prefer-vector-width=512"), optimize("fp-contract=off"))) void
adam_update_avx512(float* value, float* m, float* v, const float* grad, std::size_t n,
                   double beta1, double beta2, double lr, double eps, double bias1,
                   double bias2) {
  AIRCH_ADAM_BODY
}

__attribute__((target("avx2"), optimize("fp-contract=off"))) void adam_update_avx2(
    float* value, float* m, float* v, const float* grad, std::size_t n, double beta1,
    double beta2, double lr, double eps, double bias1, double bias2) {
  AIRCH_ADAM_BODY
}

__attribute__((optimize("fp-contract=off"))) void adam_update_base(
    float* value, float* m, float* v, const float* grad, std::size_t n, double beta1,
    double beta2, double lr, double eps, double bias1, double bias2) {
  AIRCH_ADAM_BODY
}

using AdamUpdateFn = void (*)(float*, float*, float*, const float*, std::size_t, double,
                              double, double, double, double, double);

AdamUpdateFn select_adam_update() {
  if (__builtin_cpu_supports("avx512f")) return adam_update_avx512;
  if (__builtin_cpu_supports("avx2")) return adam_update_avx2;
  return adam_update_base;
}

void adam_update(float* value, float* m, float* v, const float* grad, std::size_t n,
                 double beta1, double beta2, double lr, double eps, double bias1,
                 double bias2) {
  static const AdamUpdateFn fn = select_adam_update();
  fn(value, m, v, grad, n, beta1, beta2, lr, eps, bias1, bias2);
}
#else
void adam_update(float* value, float* m, float* v, const float* grad, std::size_t n,
                 double beta1, double beta2, double lr, double eps, double bias1,
                 double bias2) {
  AIRCH_ADAM_BODY
}
#endif

#undef AIRCH_ADAM_BODY

}  // namespace

void Adam::step(const std::vector<ParamRef>& params) {
  // A null grad means the owning layer has not run backward() yet (see
  // ParamRef): there is nothing to step on. Checked before any update.
  for (const auto& p : params) {
    AIRCH_CHECK(p.grad != nullptr, "optimizer step on a parameter with no gradient");
  }
  if (m_.empty()) {
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (const auto& p : params) {
      m_.emplace_back(p.size, 0.0f);
      v_.emplace_back(p.size, 0.0f);
    }
  }
  if (m_.size() != params.size()) throw std::logic_error("parameter list changed");
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, t_);
  const double bias2 = 1.0 - std::pow(beta2_, t_);
  for (std::size_t k = 0; k < params.size(); ++k) {
    const auto& p = params[k];
    AIRCH_ASSERT(m_[k].size() == p.size);
    adam_update(p.value, m_[k].data(), v_[k].data(), p.grad, p.size, beta1_, beta2_, lr_, eps_,
                bias1, bias2);
  }
}

double ExponentialDecaySchedule::operator()(int epoch) const {
  if (epoch < 1) throw std::invalid_argument("epoch is 1-based");
  return initial * std::pow(decay, epoch - 1);
}

}  // namespace airch::ml
