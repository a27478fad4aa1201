#pragma once
// Sequential float network, plus FeedForwardNet: the complete classifier
// body used by both the paper's MLP baselines (float input) and
// AIRCHITECT (per-feature embedding input, Fig. 2).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ml/dense.hpp"
#include "ml/embedding.hpp"
#include "ml/layer.hpp"
#include "ml/loss.hpp"
#include "ml/optimizer.hpp"

namespace airch::ml {

class Sequential {
 public:
  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  /// Training forward: each layer's forward(), caching for backward().
  Matrix forward(const Matrix& x);
  /// Side-effect-free inference forward (see Layer::infer): safe to call
  /// concurrently on one shared network.
  Matrix infer(const Matrix& x) const;
  /// Backward through all layers; returns dL/d(input of first layer).
  Matrix backward(const Matrix& grad_out);
  std::vector<ParamRef> params();
  std::vector<ConstParamRef> params() const;
  std::size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

struct TrainStats {
  double loss = 0.0;
  std::size_t correct = 0;
  std::size_t count = 0;

  /// Merges another batch's statistics; `loss` stays the sample-weighted
  /// mean. The in-memory and streaming fit paths both fold their batches
  /// through this operator in the same order, which is what makes their
  /// reported epoch histories bit-identical when the stream's chunk covers
  /// the whole set.
  TrainStats& operator+=(const TrainStats& other) {
    const double merged = static_cast<double>(count) + static_cast<double>(other.count);
    if (merged > 0.0) {
      loss = (loss * static_cast<double>(count) +
              other.loss * static_cast<double>(other.count)) /
             merged;
    }
    correct += other.correct;
    count += other.count;
    return *this;
  }
};

/// MLP classifier with either a float input or an embedding front-end.
class FeedForwardNet {
 public:
  /// Embedding-input variant (AIRCHITECT): per-feature vocabularies,
  /// an embedding width, then hidden ReLU layers and a logits layer.
  /// dropout > 0 inserts inverted-dropout after every hidden activation.
  FeedForwardNet(std::vector<int> vocab_sizes, std::size_t embed_dim,
                 const std::vector<std::size_t>& hidden, std::size_t classes, Rng& rng,
                 double dropout = 0.0);

  /// Float-input variant (MLP-A..D baselines).
  FeedForwardNet(std::size_t input_dim, const std::vector<std::size_t>& hidden,
                 std::size_t classes, Rng& rng, double dropout = 0.0);

  bool has_embedding() const { return embedding_ != nullptr; }
  std::size_t num_classes() const { return classes_; }

  /// Inference logits with no side effects (nothing cached for a backward
  /// pass), so many threads can share one trained net. They run the same
  /// per-layer infer() that the training forward is built on. Exactly one
  /// overload is legal per variant; the other throws std::logic_error.
  Matrix infer_logits(const IntBatch& x) const;
  Matrix infer_logits(const Matrix& x) const;

  /// One training step on a batch (forward, loss, backward, Adam); returns
  /// loss/accuracy stats. The wrong input modality throws std::logic_error.
  [[nodiscard]] TrainStats train_batch(const IntBatch& x, const std::vector<std::int32_t>& y, Adam& opt);
  [[nodiscard]] TrainStats train_batch(const Matrix& x, const std::vector<std::int32_t>& y, Adam& opt);

  std::vector<std::int32_t> predict(const IntBatch& x) const;
  std::vector<std::int32_t> predict(const Matrix& x) const;

  std::vector<ParamRef> params();
  std::vector<ConstParamRef> params() const;

 private:
  [[nodiscard]] TrainStats apply_loss_and_step(const Matrix& logits_out, const std::vector<std::int32_t>& y,
                                 Adam& opt);

  std::unique_ptr<EmbeddingBag> embedding_;
  Sequential body_;
  std::size_t classes_ = 0;
};

}  // namespace airch::ml
