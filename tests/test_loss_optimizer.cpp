#include <gtest/gtest.h>

#include <cmath>

#include "ml/loss.hpp"
#include "ml/optimizer.hpp"

namespace airch::ml {
namespace {

TEST(SoftmaxCe, UniformLogitsGiveLogC) {
  Matrix logits(2, 8, 0.0f);
  const LossResult r = softmax_cross_entropy(logits, {0, 5});
  EXPECT_NEAR(r.loss, std::log(8.0), 1e-6);
}

TEST(SoftmaxCe, ConfidentCorrectIsLowLoss) {
  Matrix logits(1, 3, 0.0f);
  logits(0, 1) = 20.0f;
  const LossResult r = softmax_cross_entropy(logits, {1});
  EXPECT_LT(r.loss, 1e-6);
  EXPECT_EQ(r.correct, 1u);
}

TEST(SoftmaxCe, ConfidentWrongIsHighLoss) {
  Matrix logits(1, 3, 0.0f);
  logits(0, 1) = 20.0f;
  const LossResult r = softmax_cross_entropy(logits, {0});
  EXPECT_GT(r.loss, 10.0);
  EXPECT_EQ(r.correct, 0u);
}

TEST(SoftmaxCe, GradRowsSumToZero) {
  Matrix logits(3, 5);
  Rng rng(3);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = static_cast<float>(rng.uniform(-3.0, 3.0));
  }
  const LossResult r = softmax_cross_entropy(logits, {1, 2, 4});
  for (std::size_t i = 0; i < 3; ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < 5; ++j) sum += r.grad(i, j);
    EXPECT_NEAR(sum, 0.0f, 1e-6f);
  }
}

TEST(SoftmaxCe, NumericallyStableForHugeLogits) {
  Matrix logits(1, 3, 0.0f);
  logits(0, 0) = 1e4f;
  logits(0, 1) = -1e4f;
  const LossResult r = softmax_cross_entropy(logits, {0});
  EXPECT_TRUE(std::isfinite(r.loss));
  for (std::size_t i = 0; i < r.grad.size(); ++i) {
    EXPECT_TRUE(std::isfinite(r.grad.data()[i]));
  }
}

TEST(SoftmaxRows, SumsToOne) {
  Matrix m(2, 4);
  Rng rng(5);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-5.0, 5.0));
  }
  softmax_rows(m);
  for (std::size_t i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < 4; ++j) {
      sum += m(i, j);
      EXPECT_GE(m(i, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(ArgmaxRows, PicksLargest) {
  Matrix m(2, 3, 0.0f);
  m(0, 2) = 1.0f;
  m(1, 0) = 5.0f;
  const auto idx = argmax_rows(m);
  EXPECT_EQ(idx[0], 2);
  EXPECT_EQ(idx[1], 0);
}

// ------------------------------------------------------------ optimizers

std::vector<ParamRef> one_param(std::vector<float>& w, std::vector<float>& g) {
  return {{w.data(), g.data(), w.size()}};
}

// Quadratic bowl: L = 0.5 * sum(w^2); gradient = w.
double minimize_quadratic(Adam& opt, int steps) {
  std::vector<float> w = {5.0f, -3.0f, 1.0f};
  std::vector<float> g(3);
  for (int s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < w.size(); ++i) g[i] = w[i];
    opt.step(one_param(w, g));
  }
  double norm = 0.0;
  for (float v : w) norm += v * v;
  return norm;
}

TEST(Adam, ConvergesOnQuadratic) {
  Adam opt(0.1);
  EXPECT_LT(minimize_quadratic(opt, 500), 1e-4);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // Bias correction makes the very first Adam update ~= lr * sign(grad).
  std::vector<float> w = {0.0f};
  std::vector<float> g = {123.0f};
  Adam opt(0.01);
  opt.step(one_param(w, g));
  EXPECT_NEAR(w[0], -0.01f, 1e-4f);
}

TEST(Optimizers, ParameterListChangeRejected) {
  std::vector<float> w1 = {1.0f}, g1 = {1.0f};
  std::vector<float> w2 = {1.0f, 2.0f}, g2 = {1.0f, 2.0f};
  Adam adam;
  adam.step(one_param(w1, g1));
  std::vector<ParamRef> two = {{w1.data(), g1.data(), 1}, {w2.data(), g2.data(), 2}};
  EXPECT_THROW(adam.step(two), std::logic_error);
}

}  // namespace
}  // namespace airch::ml
