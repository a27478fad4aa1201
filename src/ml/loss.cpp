#include "ml/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace airch::ml {

LossResult softmax_cross_entropy(const Matrix& logits, const std::vector<std::int32_t>& labels) {
  AIRCH_ASSERT(logits.rows() == labels.size());
  const std::size_t batch = logits.rows();
  const std::size_t classes = logits.cols();
  LossResult r;
  r.grad.resize(batch, classes);

  // Rows are independent, so they are processed in parallel with per-row
  // loss/correct written to scratch and folded sequentially afterwards (the
  // reference loop's double summation order is part of the bit-identity
  // contract). Each exp() is computed once per element and reused for both
  // the gradient and p_label — reusing the identical double changes
  // nothing numerically but halves the exp cost, which dominates this
  // function. The per-row scratch is grow-only and owned by the calling
  // thread, so steady-state steps allocate nothing for it; workers write
  // through the references, since a thread_local named inside the lambda
  // would be each worker's own copy.
  static thread_local std::vector<double> tl_row_loss;
  static thread_local std::vector<unsigned char> tl_row_correct;
  std::vector<double>& row_loss = tl_row_loss;
  std::vector<unsigned char>& row_correct = tl_row_correct;
  row_loss.assign(batch, 0.0);
  row_correct.assign(batch, 0);
  parallel_rows(batch, classes * 16, [&](std::size_t b0, std::size_t b1) {
    static thread_local std::vector<double> exps;
    if (exps.size() < classes) exps.resize(classes);
    for (std::size_t i = b0; i < b1; ++i) {
      const float* row = logits.row(i);
      float* grad_row = r.grad.row(i);
      const float max_logit = *std::max_element(row, row + classes);

      double denom = 0.0;
      for (std::size_t j = 0; j < classes; ++j) {
        exps[j] = std::exp(static_cast<double>(row[j] - max_logit));
        denom += exps[j];
      }

      const auto label = static_cast<std::size_t>(labels[i]);
      AIRCH_ASSERT(label < classes);

      std::size_t argmax = 0;
      for (std::size_t j = 0; j < classes; ++j) {
        const double p = exps[j] / denom;
        grad_row[j] = static_cast<float>(p / static_cast<double>(batch));
        if (row[j] > row[argmax]) argmax = j;
      }
      grad_row[label] -= 1.0f / static_cast<float>(batch);

      const double p_label = exps[label] / denom;
      row_loss[i] = -std::log(std::max(p_label, 1e-12));
      row_correct[i] = argmax == label ? 1 : 0;
    }
  });

  double total_loss = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    total_loss += row_loss[i];
    r.correct += row_correct[i];
  }
  r.loss = total_loss / static_cast<double>(batch);
  return r;
}

void softmax_rows(Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float* row = m.row(i);
    const float max_logit = *std::max_element(row, row + m.cols());
    double denom = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      row[j] = static_cast<float>(std::exp(static_cast<double>(row[j] - max_logit)));
      denom += static_cast<double>(row[j]);
    }
    for (std::size_t j = 0; j < m.cols(); ++j) {
      row[j] = static_cast<float>(static_cast<double>(row[j]) / denom);
    }
  }
}

std::vector<std::int32_t> argmax_rows(const Matrix& m) {
  std::vector<std::int32_t> out(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.row(i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < m.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<std::int32_t>(best);
  }
  return out;
}

}  // namespace airch::ml
