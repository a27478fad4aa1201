// Finite-difference gradient checks for every trainable layer and the
// fused softmax cross-entropy — the backbone correctness guarantee of the
// from-scratch NN stack.

#include <gtest/gtest.h>

#include <cmath>

#include "ml/activation.hpp"
#include "ml/dense.hpp"
#include "ml/embedding.hpp"
#include "ml/loss.hpp"

namespace airch::ml {
namespace {

constexpr float kEps = 1e-3f;
constexpr float kTol = 2e-2f;  // relative tolerance for fp32 central differences

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng, double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  return m;
}

/// Scalar loss used to drive gradient checks: L = sum(out * coeff).
double weighted_sum(const Matrix& out, const Matrix& coeff) {
  double s = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    s += static_cast<double>(out.data()[i]) * static_cast<double>(coeff.data()[i]);
  }
  return s;
}

void expect_close(float analytic, float numeric, const std::string& what) {
  const float denom = std::max({std::abs(analytic), std::abs(numeric), 1e-2f});
  EXPECT_LT(std::abs(analytic - numeric) / denom, kTol)
      << what << ": analytic=" << analytic << " numeric=" << numeric;
}

TEST(GradCheck, DenseInputGradient) {
  Rng rng(3);
  DenseLayer layer(4, 3, rng);
  Matrix x = random_matrix(5, 4, rng);
  const Matrix coeff = random_matrix(5, 3, rng);

  layer.forward(x);
  const Matrix grad_in = layer.backward(coeff);

  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const float orig = x(r, c);
      x(r, c) = orig + kEps;
      const double plus = weighted_sum(layer.forward(x), coeff);
      x(r, c) = orig - kEps;
      const double minus = weighted_sum(layer.forward(x), coeff);
      x(r, c) = orig;
      const float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
      expect_close(grad_in(r, c), numeric, "dX[" + std::to_string(r) + "," + std::to_string(c) + "]");
    }
  }
}

TEST(GradCheck, DenseParamGradients) {
  Rng rng(5);
  DenseLayer layer(3, 2, rng);
  const Matrix x = random_matrix(4, 3, rng);
  const Matrix coeff = random_matrix(4, 2, rng);

  layer.forward(x);
  layer.backward(coeff);
  auto params = layer.params();  // [0] = W, [1] = b

  for (const auto& p : params) {
    for (std::size_t i = 0; i < p.size; ++i) {
      const float analytic = p.grad[i];
      const float orig = p.value[i];
      p.value[i] = orig + kEps;
      const double plus = weighted_sum(layer.forward(x), coeff);
      p.value[i] = orig - kEps;
      const double minus = weighted_sum(layer.forward(x), coeff);
      p.value[i] = orig;
      const float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
      expect_close(analytic, numeric, "param[" + std::to_string(i) + "]");
    }
  }
}

TEST(GradCheck, ReluGradient) {
  Rng rng(7);
  ReluLayer layer;
  Matrix x = random_matrix(6, 5, rng);
  const Matrix coeff = random_matrix(6, 5, rng);

  layer.forward(x);
  const Matrix grad_in = layer.backward(coeff);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float expected = x.data()[i] > 0.0f ? coeff.data()[i] : 0.0f;
    EXPECT_FLOAT_EQ(grad_in.data()[i], expected);
  }
}

TEST(GradCheck, EmbeddingTableGradient) {
  Rng rng(9);
  EmbeddingBag emb({4, 3}, 2, rng);
  IntBatch x;
  x.resize(3, 2);
  x(0, 0) = 1;
  x(0, 1) = 2;
  x(1, 0) = 1;  // repeated index: gradients must accumulate
  x(1, 1) = 0;
  x(2, 0) = 3;
  x(2, 1) = 2;
  const Matrix coeff = random_matrix(3, emb.output_dim(), rng);

  emb.forward(x);
  emb.backward(coeff);
  auto params = emb.params();

  for (const auto& p : params) {
    for (std::size_t i = 0; i < p.size; ++i) {
      const float analytic = p.grad[i];
      const float orig = p.value[i];
      p.value[i] = orig + kEps;
      const double plus = weighted_sum(emb.forward(x), coeff);
      p.value[i] = orig - kEps;
      const double minus = weighted_sum(emb.forward(x), coeff);
      p.value[i] = orig;
      const float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
      expect_close(analytic, numeric, "emb[" + std::to_string(i) + "]");
    }
  }
}

TEST(GradCheck, SoftmaxCrossEntropyGradient) {
  Rng rng(11);
  Matrix logits = random_matrix(4, 5, rng, 2.0);
  const std::vector<std::int32_t> labels = {0, 3, 2, 4};

  const LossResult base = softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float orig = logits.data()[i];
    logits.data()[i] = orig + kEps;
    const double plus = softmax_cross_entropy(logits, labels).loss;
    logits.data()[i] = orig - kEps;
    const double minus = softmax_cross_entropy(logits, labels).loss;
    logits.data()[i] = orig;
    const float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
    expect_close(base.grad.data()[i], numeric, "logit[" + std::to_string(i) + "]");
  }
}

TEST(Embedding, OutOfRangeIndicesClamped) {
  Rng rng(13);
  EmbeddingBag emb({4}, 2, rng);
  IntBatch x;
  x.resize(2, 1);
  x(0, 0) = -5;
  x(1, 0) = 99;
  const Matrix out = emb.forward(x);  // must not crash
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 2u);
}

TEST(Embedding, OutputLayout) {
  Rng rng(15);
  EmbeddingBag emb({3, 3}, 4, rng);
  EXPECT_EQ(emb.output_dim(), 8u);
  EXPECT_EQ(emb.num_features(), 2u);
  IntBatch x;
  x.resize(1, 2);
  x(0, 0) = 1;
  x(0, 1) = 2;
  const Matrix out = emb.forward(x);
  // First 4 entries = table0 row1; last 4 = table1 row2.
  auto params = emb.params();
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(out(0, d), params[0].value[1 * 4 + d]);
    EXPECT_FLOAT_EQ(out(0, 4 + d), params[1].value[2 * 4 + d]);
  }
}

TEST(Dense, ZeroSizeRejected) {
  Rng rng(17);
  EXPECT_THROW(DenseLayer(0, 5, rng), std::invalid_argument);
  EXPECT_THROW(DenseLayer(5, 0, rng), std::invalid_argument);
}

TEST(Embedding, BadSpecRejected) {
  Rng rng(19);
  EXPECT_THROW(EmbeddingBag({}, 4, rng), std::invalid_argument);
  EXPECT_THROW(EmbeddingBag({3}, 0, rng), std::invalid_argument);
  EXPECT_THROW(EmbeddingBag({0}, 4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace airch::ml
