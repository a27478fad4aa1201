#pragma once
// Reference oracle for src/ml: the seed's plain single-threaded loops for
// every op of a training step, kept outside the shipping library. Tests
// bit-compare the library against them — each kernel op by op, and
// FeedForwardNet::train_batch step by step against ReferenceNet, which
// trains the same network with nothing but these loops.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/embedding.hpp"
#include "ml/layer.hpp"
#include "ml/loss.hpp"
#include "ml/matrix.hpp"

namespace airch::ml {

/// The seed's single-threaded ikj matmul: C = alpha * op(A) * op(B) +
/// beta * C. Its one quirk is load-bearing: a term whose scaled A operand
/// `alpha * op(A)(i,p)` equals zero is SKIPPED, not accumulated — a
/// dropout- or ReLU-zeroed activation row contributes exactly +0.0f to C,
/// never -0.0f and never a NaN from 0 * inf.
void matmul_reference(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, Matrix& c,
                      float alpha = 1.0f, float beta = 0.0f);

/// The seed's softmax cross-entropy loop: one row after another, exp()
/// evaluated again for every use.
[[nodiscard]] LossResult softmax_cross_entropy_reference(const Matrix& logits,
                                                         const std::vector<std::int32_t>& labels);

/// The seed's scalar Adam loop.
class AdamReference {
 public:
  explicit AdamReference(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                         double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}
  void step(const std::vector<ParamRef>& params);
  void set_learning_rate(double lr) { lr_ = lr; }

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// y = max(x, 0), with NaN mapped to 0.
[[nodiscard]] Matrix relu_forward_reference(const Matrix& x);
/// grad_out times the seed's float mask: 1.0f where the forward INPUT x was
/// positive, 0.0f elsewhere.
[[nodiscard]] Matrix relu_backward_reference(const Matrix& x, const Matrix& grad_out);

/// Draws an inverted-dropout keep-mask in row-major order from `rng`: each
/// element is 1 / (1 - rate) if `rng.uniform() >= rate`, else 0.
[[nodiscard]] Matrix dropout_mask_reference(Rng& rng, std::size_t rows, std::size_t cols,
                                            double rate);
/// Elementwise x * mask (dropout forward and backward alike).
[[nodiscard]] Matrix multiply_reference(const Matrix& x, const Matrix& mask);

/// Concatenated per-feature table rows, indices clamped into each vocab.
[[nodiscard]] Matrix embedding_forward_reference(const std::vector<Matrix>& tables,
                                                 const IntBatch& indices);
/// The seed's row-major scatter: grads[f] is zeroed, then every row's
/// gradient slice is added into the table row its index selected.
void embedding_backward_reference(const std::vector<Matrix>& tables, const IntBatch& indices,
                                  const Matrix& grad_out, std::vector<Matrix>& grads);

/// FeedForwardNet rebuilt from the loops above. Constructed from an Rng in
/// the same state as FeedForwardNet's, it replays the same draws, so it
/// starts from the same weights and gives every dropout layer the same
/// seed. params() lists tensors in FeedForwardNet::params() order.
class ReferenceNet {
 public:
  /// The two FeedForwardNet variants: embedding input and float input.
  ReferenceNet(const std::vector<int>& vocab_sizes, std::size_t embed_dim,
               const std::vector<std::size_t>& hidden, std::size_t classes, Rng& rng,
               double dropout = 0.0);
  ReferenceNet(std::size_t input_dim, const std::vector<std::size_t>& hidden,
               std::size_t classes, Rng& rng, double dropout = 0.0);

  struct StepResult {
    double loss = 0.0;
    std::size_t correct = 0;
  };
  /// One training step: forward, loss, backward, Adam.
  StepResult train_batch(const IntBatch& x, const std::vector<std::int32_t>& labels,
                         AdamReference& opt);
  StepResult train_batch(const Matrix& x, const std::vector<std::int32_t>& labels,
                         AdamReference& opt);

  std::vector<ParamRef> params();

 private:
  struct Dense {
    Matrix w;
    std::vector<float> b;
    Matrix w_grad;
    std::vector<float> b_grad;
    Matrix input;  // forward input, for the weight gradient
  };
  struct Hidden {
    Dense dense;
    Matrix pre_activation;  // ReLU input, for its mask
    Rng dropout_rng{0};
    Matrix dropout_mask;
  };

  void build_body(std::size_t in_dim, const std::vector<std::size_t>& hidden,
                  std::size_t classes, Rng& rng);
  /// `h` is the body's input: the gathered embeddings or the float batch.
  StepResult step(Matrix h, const IntBatch* indices, const std::vector<std::int32_t>& labels,
                  AdamReference& opt);

  std::vector<Matrix> tables_;
  std::vector<Matrix> table_grads_;
  std::vector<Hidden> hidden_;
  Dense head_;
  double dropout_ = 0.0;
};

/// RAII override of AIRCH_THREADS (the kernels read it per call),
/// restoring the previous value — or its absence — on scope exit.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(const char* threads) {
    if (const char* old = std::getenv("AIRCH_THREADS")) saved_ = old;
    setenv("AIRCH_THREADS", threads, 1);
  }
  ~ThreadsGuard() {
    if (saved_.empty()) {
      unsetenv("AIRCH_THREADS");
    } else {
      setenv("AIRCH_THREADS", saved_.c_str(), 1);
    }
  }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  std::string saved_;
};

}  // namespace airch::ml
