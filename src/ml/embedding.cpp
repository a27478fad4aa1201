#include "ml/embedding.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"

namespace airch::ml {

EmbeddingBag::EmbeddingBag(std::vector<int> vocab_sizes, std::size_t dim, Rng& rng)
    : vocab_sizes_(std::move(vocab_sizes)), dim_(dim) {
  if (vocab_sizes_.empty() || dim_ == 0) throw std::invalid_argument("empty embedding spec");
  tables_.reserve(vocab_sizes_.size());
  for (int vocab : vocab_sizes_) {
    if (vocab < 1) throw std::invalid_argument("vocab size must be >= 1");
    Matrix t(static_cast<std::size_t>(vocab), dim_);
    t.init_glorot(rng);
    tables_.push_back(std::move(t));
  }
}

Matrix EmbeddingBag::forward(const IntBatch& indices) {
  cached_indices_ = indices;
  return infer(indices);
}

Matrix EmbeddingBag::infer(const IntBatch& indices) const {
  AIRCH_ASSERT(indices.cols == vocab_sizes_.size());
  Matrix out(indices.rows, output_dim());
  // Each output row is an independent gather; row-partitioning across
  // workers is race-free and order-independent (pure copies).
  parallel_rows(indices.rows, output_dim() * 2, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* dst = out.row(r);
      for (std::size_t f = 0; f < vocab_sizes_.size(); ++f) {
        const int vocab = vocab_sizes_[f];
        const auto idx = static_cast<std::size_t>(
            std::clamp<std::int32_t>(indices(r, f), 0, vocab - 1));
        const float* src = tables_[f].row(idx);
        std::copy(src, src + dim_, dst + f * dim_);
      }
    }
  });
  return out;
}

void EmbeddingBag::backward(const Matrix& grad_out) {
  AIRCH_ASSERT(grad_out.rows() == cached_indices_.rows && grad_out.cols() == output_dim());
  if (table_grads_.empty()) {  // first backward
    for (const Matrix& t : tables_) table_grads_.emplace_back(t.rows(), dim_);
  }
  // The scatter is partitioned by FEATURE, not by row: feature f owns
  // table_grads_[f] exclusively, so concurrent workers never touch the
  // same gradient cell, and within a feature the rows are walked in
  // ascending order — the same per-cell accumulation order as the
  // original row-major loop. Race-free and bit-identical.
  const std::size_t rows = cached_indices_.rows;
  parallel_rows(vocab_sizes_.size(), rows * dim_ * 2, [&](std::size_t f0, std::size_t f1) {
    for (std::size_t f = f0; f < f1; ++f) {
      table_grads_[f].fill(0.0f);
      const int vocab = vocab_sizes_[f];
      for (std::size_t r = 0; r < rows; ++r) {
        const float* src = grad_out.row(r) + f * dim_;
        const auto idx = static_cast<std::size_t>(
            std::clamp<std::int32_t>(cached_indices_(r, f), 0, vocab - 1));
        float* dst = table_grads_[f].row(idx);
        for (std::size_t d = 0; d < dim_; ++d) dst[d] += src[d];
      }
    }
  });
}

std::vector<ParamRef> EmbeddingBag::params() {
  std::vector<ParamRef> out;
  out.reserve(tables_.size());
  for (std::size_t f = 0; f < tables_.size(); ++f) {
    float* grad = table_grads_.empty() ? nullptr : table_grads_[f].data();
    out.push_back({tables_[f].data(), grad, tables_[f].size()});
  }
  return out;
}

std::vector<ConstParamRef> EmbeddingBag::params() const {
  std::vector<ConstParamRef> out;
  out.reserve(tables_.size());
  for (const Matrix& t : tables_) out.push_back({t.data(), t.size()});
  return out;
}

}  // namespace airch::ml
