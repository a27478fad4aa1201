#include "ml/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "ml/activation.hpp"

namespace airch::ml {
namespace {

// Synthetic 3-class problem, float modality: class = argmax coordinate.
TEST(FeedForwardNet, LearnsSeparableFloatProblem) {
  Rng rng(3);
  FeedForwardNet net(3, {32}, 3, rng);
  Adam opt(0.01);

  Rng data_rng(5);
  auto make_batch = [&](std::size_t n, Matrix& x, std::vector<std::int32_t>& y) {
    x.resize(n, 3);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      int best = 0;
      for (int f = 0; f < 3; ++f) {
        x(i, static_cast<std::size_t>(f)) = static_cast<float>(data_rng.uniform(-1.0, 1.0));
        if (x(i, static_cast<std::size_t>(f)) > x(i, static_cast<std::size_t>(best))) best = f;
      }
      y[i] = best;
    }
  };

  Matrix x;
  std::vector<std::int32_t> y;
  for (int step = 0; step < 300; ++step) {
    make_batch(64, x, y);
    (void)net.train_batch(x, y, opt);  // training for the side effect; per-step stats unused
  }
  make_batch(500, x, y);
  const auto preds = net.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (preds[i] == y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / 500.0, 0.9);
}

// Embedding modality: label determined by a lookup table over 2 features.
TEST(FeedForwardNet, LearnsCategoricalProblemViaEmbeddings) {
  Rng rng(7);
  FeedForwardNet net({5, 5}, 8, {32}, 4, rng);
  Adam opt(0.01);

  auto label_of = [](int a, int b) { return (a * 3 + b * 7) % 4; };
  Rng data_rng(9);
  auto make_batch = [&](std::size_t n, IntBatch& x, std::vector<std::int32_t>& y) {
    x.resize(n, 2);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int a = static_cast<int>(data_rng.uniform_int(0, 4));
      const int b = static_cast<int>(data_rng.uniform_int(0, 4));
      x(i, 0) = a;
      x(i, 1) = b;
      y[i] = label_of(a, b);
    }
  };

  IntBatch x;
  std::vector<std::int32_t> y;
  for (int step = 0; step < 400; ++step) {
    make_batch(64, x, y);
    (void)net.train_batch(x, y, opt);  // training for the side effect; per-step stats unused
  }
  make_batch(500, x, y);
  const auto preds = net.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (preds[i] == y[i]) ++correct;
  }
  // The mapping is a finite table; the net should essentially memorize it.
  EXPECT_GT(static_cast<double>(correct) / 500.0, 0.95);
}

TEST(FeedForwardNet, TrainingReducesLoss) {
  Rng rng(11);
  FeedForwardNet net(4, {16}, 2, rng);
  Adam opt(0.01);
  Matrix x(32, 4);
  std::vector<std::int32_t> y(32);
  Rng data_rng(13);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t f = 0; f < 4; ++f) {
      x(i, f) = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    }
    y[i] = x(i, 0) > 0.0f ? 1 : 0;
  }
  const double first = net.train_batch(x, y, opt).loss;
  double last = first;
  for (int step = 0; step < 100; ++step) last = net.train_batch(x, y, opt).loss;
  EXPECT_LT(last, first * 0.5);
}

TEST(FeedForwardNet, ModalityMismatchThrows) {
  Rng rng(15);
  FeedForwardNet float_net(4, {8}, 2, rng);
  IntBatch ints;
  ints.resize(1, 4);
  const std::vector<std::int32_t> y = {0};
  Adam opt;
  EXPECT_THROW((void)float_net.infer_logits(ints), std::logic_error);
  EXPECT_THROW((void)float_net.train_batch(ints, y, opt), std::logic_error);

  FeedForwardNet embed_net({4, 4, 4, 4}, 4, {8}, 2, rng);
  Matrix floats(1, 4);
  EXPECT_THROW((void)embed_net.infer_logits(floats), std::logic_error);
  EXPECT_THROW((void)embed_net.train_batch(floats, y, opt), std::logic_error);
}

TEST(FeedForwardNet, ParamsCoverAllLayers) {
  Rng rng(17);
  // embeddings (2 tables) + dense1 (W+b) + dense2 (W+b) = 6 param tensors.
  FeedForwardNet net({4, 4}, 4, {8}, 3, rng);
  EXPECT_EQ(net.params().size(), 6u);
  EXPECT_TRUE(net.has_embedding());
  EXPECT_EQ(net.num_classes(), 3u);
}

TEST(FeedForwardNet, LoadedNetCarriesNoGradientsUntilItTrains) {
  // NeuralClassifier::load builds a fresh net and writes the saved weights
  // through params(). A net loaded to serve never runs backward(), so it
  // must not carry gradient storage: every grad stays null.
  IntBatch x;
  x.resize(2, 2);
  x(0, 0) = 1;
  x(0, 1) = 3;
  x(1, 0) = 2;
  x(1, 1) = 0;
  const std::vector<std::int32_t> y = {0, 2};
  Rng rng(21);
  FeedForwardNet trained({4, 4}, 4, {8}, 3, rng);
  Adam opt(0.01);
  (void)trained.train_batch(x, y, opt);
  for (const auto& p : trained.params()) EXPECT_NE(p.grad, nullptr);

  Rng other(22);
  FeedForwardNet loaded({4, 4}, 4, {8}, 3, other);
  const auto saved = std::as_const(trained).params();
  const auto params = loaded.params();
  ASSERT_EQ(params.size(), saved.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i].size, saved[i].size);
    std::copy(saved[i].value, saved[i].value + saved[i].size, params[i].value);
    EXPECT_EQ(params[i].grad, nullptr) << "tensor " << i;
  }
  EXPECT_EQ(loaded.predict(x), trained.predict(x));

  // An optimizer step before any backward() is a contract violation, not
  // a null dereference; the first backward() allocates the gradients.
  Adam fresh(0.01);
  EXPECT_THROW(fresh.step(loaded.params()), ContractViolation);
  (void)loaded.train_batch(x, y, fresh);
  for (const auto& p : loaded.params()) EXPECT_NE(p.grad, nullptr);
}

TEST(Sequential, ForwardBackwardShapes) {
  Rng rng(19);
  Sequential seq;
  seq.add(std::make_unique<DenseLayer>(6, 4, rng));
  seq.add(std::make_unique<ReluLayer>());
  seq.add(std::make_unique<DenseLayer>(4, 2, rng));
  Matrix x(3, 6, 0.5f);
  const Matrix out = seq.forward(x);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 2u);
  Matrix grad(3, 2, 1.0f);
  const Matrix grad_in = seq.backward(grad);
  EXPECT_EQ(grad_in.rows(), 3u);
  EXPECT_EQ(grad_in.cols(), 6u);
  EXPECT_EQ(seq.num_layers(), 3u);
}

}  // namespace
}  // namespace airch::ml
