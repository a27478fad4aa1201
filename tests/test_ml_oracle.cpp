// Bit-compares the src/ml training step against the reference oracle
// (tests/reference/ml_reference.hpp): softmax cross-entropy, Adam, and the
// ReLU, dropout and embedding layers op by op, then
// FeedForwardNet::train_batch step by step against ReferenceNet, every
// parameter after every step. Everything thread-sensitive runs at
// AIRCH_THREADS=1 and 4; at 4 the parallel element loops and the
// column-split matmul fork real workers, which is why this suite carries
// the tsan label.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ml/activation.hpp"
#include "ml/dropout.hpp"
#include "ml/embedding.hpp"
#include "ml/loss.hpp"
#include "ml/network.hpp"
#include "ml/optimizer.hpp"
#include "reference/ml_reference.hpp"

namespace airch::ml {
namespace {

constexpr const char* kThreadCounts[] = {"1", "4"};

bool bit_equal(const float* x, const float* y, std::size_t n) {
  return std::memcmp(x, y, n * sizeof(float)) == 0;
}

bool bit_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() && bit_equal(x.data(), y.data(), x.size());
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::mt19937& rng, float lo, float hi,
                     double zero_fraction = 0.0) {
  std::uniform_real_distribution<float> dist(lo, hi);
  std::bernoulli_distribution zero(zero_fraction);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = zero(rng) ? 0.0f : dist(rng);
  return m;
}

/// Sprinkles the values that decide a mask or a multiply by zero: both
/// zeros, both infinities and a NaN.
void plant_specials(Matrix& m) {
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (std::size_t i = 0; i < 5; ++i) m.data()[(i * 7919) % m.size()] = specials[i];
}

std::vector<std::int32_t> random_labels(std::size_t n, std::size_t classes, std::mt19937& rng) {
  std::uniform_int_distribution<std::int32_t> dist(0, static_cast<std::int32_t>(classes) - 1);
  std::vector<std::int32_t> labels(n);
  for (auto& l : labels) l = dist(rng);
  return labels;
}

// ------------------------------------------------------------------ loss

TEST(LossOracle, SoftmaxCrossEntropyMatchesReferenceBitForBit) {
  // The served heads' class counts, a full batch and a ragged one. At 4
  // threads a 256 x 1944 batch splits its rows between three workers.
  std::mt19937 rng(459);
  for (const std::size_t classes : {459, 1944}) {
    for (const std::size_t batch : {256, 77}) {
      Matrix logits = random_matrix(batch, classes, rng, -12.0f, 12.0f);
      // A tie for the row maximum: argmax must keep the first one.
      logits(1, 5) = logits(1, 9) = 40.0f;
      const auto labels = random_labels(batch, classes, rng);
      const LossResult ref = softmax_cross_entropy_reference(logits, labels);
      for (const char* threads : kThreadCounts) {
        const ThreadsGuard guard(threads);
        const LossResult got = softmax_cross_entropy(logits, labels);
        SCOPED_TRACE(::testing::Message() << "classes " << classes << " batch " << batch
                                          << " threads " << threads);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.loss), std::bit_cast<std::uint64_t>(ref.loss));
        EXPECT_TRUE(bit_equal(got.grad, ref.grad));
        EXPECT_EQ(got.correct, ref.correct);
      }
    }
  }
}

// ------------------------------------------------------------------ Adam

TEST(AdamOracle, SimdUpdateMatchesScalarReference) {
  // Lengths around every SIMD width (2, 4 and 8 doubles per vector), so
  // each vector loop also runs its scalar tail, over several steps with
  // fresh gradients and a mid-run learning-rate change.
  const std::size_t lengths[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 257, 1001};
  std::mt19937 rng(2024);
  std::uniform_real_distribution<float> value(-1.0f, 1.0f);
  std::uniform_real_distribution<float> grad(-3.0f, 3.0f);
  std::bernoulli_distribution zero(0.2);
  std::vector<std::vector<float>> values, ref_values, grads;
  for (const std::size_t n : lengths) {
    values.emplace_back(n);
    for (float& v : values.back()) v = value(rng);
    grads.emplace_back(n);
  }
  ref_values = values;
  auto views = [&grads](std::vector<std::vector<float>>& vals) {
    std::vector<ParamRef> out;
    for (std::size_t k = 0; k < vals.size(); ++k) {
      out.push_back({vals[k].data(), grads[k].data(), vals[k].size()});
    }
    return out;
  };
  Adam adam(0.01);
  AdamReference ref(0.01);
  for (int step = 1; step <= 6; ++step) {
    for (auto& g : grads) {
      for (float& x : g) x = zero(rng) ? 0.0f : grad(rng);
    }
    if (step == 4) {
      adam.set_learning_rate(0.003);
      ref.set_learning_rate(0.003);
    }
    adam.step(views(values));
    ref.step(views(ref_values));
    for (std::size_t k = 0; k < values.size(); ++k) {
      ASSERT_TRUE(bit_equal(values[k].data(), ref_values[k].data(), values[k].size()))
          << "length " << lengths[k] << " step " << step;
    }
  }
}

// ---------------------------------------------------------------- layers
// Big enough that at 4 threads each parallel element loop splits between
// workers (parallel_rows wants ~2M scalar ops per worker).

TEST(LayerOracle, ReluMatchesReference) {
  std::mt19937 rng(7);
  Matrix x = random_matrix(1024, 4096, rng, -2.0f, 2.0f, 0.1);
  plant_specials(x);
  Matrix grad = random_matrix(1024, 4096, rng, -1.0f, 1.0f);
  plant_specials(grad);
  const Matrix ref_y = relu_forward_reference(x);
  const Matrix ref_g = relu_backward_reference(x, grad);
  for (const char* threads : kThreadCounts) {
    const ThreadsGuard guard(threads);
    ReluLayer relu;
    EXPECT_TRUE(bit_equal(relu.infer(x), ref_y)) << "threads " << threads;
    EXPECT_TRUE(bit_equal(relu.forward(x), ref_y)) << "threads " << threads;
    EXPECT_TRUE(bit_equal(relu.backward(grad), ref_g)) << "threads " << threads;
  }
}

TEST(LayerOracle, DropoutMatchesReference) {
  // Two steps, so the second mask continues the first one's Rng stream.
  std::mt19937 rng(11);
  const Matrix x = random_matrix(1024, 4096, rng, -2.0f, 2.0f);
  Matrix grad = random_matrix(1024, 4096, rng, -1.0f, 1.0f);
  plant_specials(grad);
  for (const char* threads : kThreadCounts) {
    const ThreadsGuard guard(threads);
    DropoutLayer dropout(0.3, 99);
    Rng ref_rng(99);
    for (int step = 0; step < 2; ++step) {
      const Matrix mask = dropout_mask_reference(ref_rng, x.rows(), x.cols(), 0.3);
      EXPECT_TRUE(bit_equal(dropout.forward(x), multiply_reference(x, mask)))
          << "threads " << threads << " step " << step;
      EXPECT_TRUE(bit_equal(dropout.backward(grad), multiply_reference(grad, mask)))
          << "threads " << threads << " step " << step;
    }
  }
}

TEST(LayerOracle, EmbeddingMatchesReference) {
  // 16384 rows of 8 features: the gather splits by row and the gradient
  // scatter by feature. Out-of-range indices exercise the clamp, and
  // repeated indices the accumulation order.
  const std::vector<int> vocab = {3, 17, 64, 5, 250, 9, 31, 2};
  std::mt19937 rng(13);
  std::uniform_int_distribution<std::int32_t> index(-2, 260);
  IntBatch x;
  x.resize(16384, vocab.size());
  for (auto& v : x.data) v = index(rng);
  const Matrix grad = random_matrix(x.rows, vocab.size() * 16, rng, -1.0f, 1.0f);
  for (const char* threads : kThreadCounts) {
    const ThreadsGuard guard(threads);
    Rng init(5);
    EmbeddingBag emb(vocab, 16, init);
    std::vector<Matrix> tables;
    for (const ParamRef& p : emb.params()) {
      tables.emplace_back(p.size / 16, 16);
      std::copy(p.value, p.value + p.size, tables.back().data());
    }
    const Matrix ref_y = embedding_forward_reference(tables, x);
    EXPECT_TRUE(bit_equal(emb.infer(x), ref_y)) << "threads " << threads;
    EXPECT_TRUE(bit_equal(emb.forward(x), ref_y)) << "threads " << threads;
    emb.backward(grad);
    std::vector<Matrix> ref_grads;
    embedding_backward_reference(tables, x, grad, ref_grads);
    const auto params = emb.params();
    for (std::size_t f = 0; f < vocab.size(); ++f) {
      EXPECT_TRUE(bit_equal(params[f].grad, ref_grads[f].data(), params[f].size))
          << "feature " << f << " threads " << threads;
    }
  }
}

// ------------------------------------------------------- training steps

struct NetCase {
  const char* name;
  std::vector<int> vocab;  ///< empty: float input of width input_dim
  std::size_t embed_dim;
  std::size_t input_dim;
  std::vector<std::size_t> hidden;
  std::size_t classes;
  double dropout;
};

/// Trains FeedForwardNet and ReferenceNet side by side from the same seed
/// over two epochs of batches of 64, the last batch ragged (29 rows), and
/// bit-compares the loss, the correct count and every parameter after
/// every step.
void expect_same_trajectory(const NetCase& c) {
  constexpr std::size_t kPoints = 2 * 64 + 29;
  constexpr std::size_t kBatch = 64;
  std::mt19937 data_rng(31);
  IntBatch ints;
  Matrix floats;
  if (c.vocab.empty()) {
    floats = random_matrix(kPoints, c.input_dim, data_rng, -2.0f, 2.0f);
  } else {
    ints.resize(kPoints, c.vocab.size());
    for (std::size_t r = 0; r < kPoints; ++r) {
      for (std::size_t f = 0; f < c.vocab.size(); ++f) {
        ints(r, f) = std::uniform_int_distribution<std::int32_t>(0, c.vocab[f] - 1)(data_rng);
      }
    }
  }
  const auto labels = random_labels(kPoints, c.classes, data_rng);

  Rng net_rng(77);
  Rng ref_rng(77);
  FeedForwardNet net = c.vocab.empty()
                           ? FeedForwardNet(c.input_dim, c.hidden, c.classes, net_rng, c.dropout)
                           : FeedForwardNet(c.vocab, c.embed_dim, c.hidden, c.classes, net_rng,
                                            c.dropout);
  ReferenceNet ref = c.vocab.empty()
                         ? ReferenceNet(c.input_dim, c.hidden, c.classes, ref_rng, c.dropout)
                         : ReferenceNet(c.vocab, c.embed_dim, c.hidden, c.classes, ref_rng,
                                        c.dropout);
  auto expect_same_params = [&](int step) {
    const auto got = std::as_const(net).params();
    const auto want = ref.params();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < got.size(); ++t) {
      ASSERT_EQ(got[t].size, want[t].size);
      ASSERT_TRUE(bit_equal(got[t].value, want[t].value, got[t].size))
          << "tensor " << t << " after step " << step;
    }
  };
  expect_same_params(0);
  if (::testing::Test::HasFatalFailure()) return;

  Adam adam(0.01);
  AdamReference ref_adam(0.01);
  int step = 0;
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (std::size_t begin = 0; begin < kPoints; begin += kBatch) {
      const std::size_t end = std::min(kPoints, begin + kBatch);
      const std::vector<std::int32_t> y(labels.begin() + static_cast<std::ptrdiff_t>(begin),
                                        labels.begin() + static_cast<std::ptrdiff_t>(end));
      TrainStats got;
      ReferenceNet::StepResult want;
      if (c.vocab.empty()) {
        Matrix x(end - begin, c.input_dim);
        std::copy(floats.row(begin), floats.row(begin) + x.size(), x.data());
        got = net.train_batch(x, y, adam);
        want = ref.train_batch(x, y, ref_adam);
      } else {
        IntBatch x;
        x.resize(end - begin, c.vocab.size());
        std::copy(ints.data.begin() + static_cast<std::ptrdiff_t>(begin * ints.cols),
                  ints.data.begin() + static_cast<std::ptrdiff_t>(end * ints.cols),
                  x.data.begin());
        got = net.train_batch(x, y, adam);
        want = ref.train_batch(x, y, ref_adam);
      }
      ++step;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.loss), std::bit_cast<std::uint64_t>(want.loss))
          << "loss at step " << step;
      ASSERT_EQ(got.correct, want.correct) << "correct at step " << step;
      expect_same_params(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(StepOracle, TrainBatchMatchesReferenceEveryStep) {
  // The AIrchitect shape: a 256-wide hidden layer under a 459-class head,
  // so the head's matmuls span two 256 KiB panels; a two-hidden-layer
  // embedding net with dropout; and the float-input MLP variant.
  const NetCase cases[] = {
      {"embedding", {12, 9, 30, 7}, 16, 0, {256}, 459, 0.0},
      {"embedding+dropout", {5, 40, 11}, 8, 0, {96, 48}, 23, 0.25},
      {"float", {}, 0, 20, {64, 32}, 7, 0.0},
  };
  for (const NetCase& c : cases) {
    for (const char* threads : kThreadCounts) {
      const ThreadsGuard guard(threads);
      SCOPED_TRACE(::testing::Message() << c.name << " net, threads " << threads);
      expect_same_trajectory(c);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace airch::ml
