#include "reference/ml_reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"

namespace airch::ml {

void matmul_reference(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, Matrix& c,
                      float alpha, float beta) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t k2 = trans_b ? b.cols() : b.rows();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  AIRCH_DCHECK(k == k2, "matmul inner dimensions must agree");
  (void)k2;
  AIRCH_DCHECK(c.rows() == m && c.cols() == n, "matmul output must be pre-sized to m x n");

  if (beta == 0.0f) {
    c.fill(0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] *= beta;
  }

  // ikj loop order keeps the innermost accesses contiguous for the
  // untransposed cases; the transposed variants fall back to strided reads
  // of one operand. The zero-skip is load-bearing: see the header contract.
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c.row(i);
    for (std::size_t p = 0; p < k; ++p) {
      const float a_val = alpha * (trans_a ? a(p, i) : a(i, p));
      if (a_val == 0.0f) continue;
      if (!trans_b) {
        const float* b_row = b.row(p);
        for (std::size_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
      } else {
        for (std::size_t j = 0; j < n; ++j) c_row[j] += a_val * b(j, p);
      }
    }
  }
}

LossResult softmax_cross_entropy_reference(const Matrix& logits,
                                           const std::vector<std::int32_t>& labels) {
  AIRCH_ASSERT(logits.rows() == labels.size());
  const std::size_t batch = logits.rows();
  const std::size_t classes = logits.cols();
  LossResult r;
  r.grad.resize(batch, classes);

  double total_loss = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    const float* row = logits.row(i);
    float* grad_row = r.grad.row(i);
    const float max_logit = *std::max_element(row, row + classes);

    double denom = 0.0;
    for (std::size_t j = 0; j < classes; ++j) denom += std::exp(static_cast<double>(row[j] - max_logit));

    const auto label = static_cast<std::size_t>(labels[i]);
    AIRCH_ASSERT(label < classes);

    std::size_t argmax = 0;
    for (std::size_t j = 0; j < classes; ++j) {
      const double p = std::exp(static_cast<double>(row[j] - max_logit)) / denom;
      grad_row[j] = static_cast<float>(p / static_cast<double>(batch));
      if (row[j] > row[argmax]) argmax = j;
    }
    grad_row[label] -= 1.0f / static_cast<float>(batch);

    const double p_label =
        std::exp(static_cast<double>(row[label] - max_logit)) / denom;
    total_loss += -std::log(std::max(p_label, 1e-12));
    if (argmax == label) ++r.correct;
  }
  r.loss = total_loss / static_cast<double>(batch);
  return r;
}

void AdamReference::step(const std::vector<ParamRef>& params) {
  if (m_.empty()) {
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
    auto& m = m_[k];
    auto& v = v_[k];
    for (std::size_t i = 0; i < p.size; ++i) {
      const double g = p.grad[i];
      m[i] = static_cast<float>(beta1_ * static_cast<double>(m[i]) + (1.0 - beta1_) * g);
      v[i] = static_cast<float>(beta2_ * static_cast<double>(v[i]) + (1.0 - beta2_) * g * g);
      const double m_hat = static_cast<double>(m[i]) / bias1;
      const double v_hat = static_cast<double>(v[i]) / bias2;
      p.value[i] -= static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + eps_));
    }
  }
}

Matrix relu_forward_reference(const Matrix& x) {
  Matrix y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (!(y.data()[i] > 0.0f)) y.data()[i] = 0.0f;
  }
  return y;
}

Matrix relu_backward_reference(const Matrix& x, const Matrix& grad_out) {
  Matrix g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float mask = x.data()[i] > 0.0f ? 1.0f : 0.0f;
    g.data()[i] *= mask;
  }
  return g;
}

Matrix dropout_mask_reference(Rng& rng, std::size_t rows, std::size_t cols, double rate) {
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate));
  Matrix mask(rows, cols);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng.uniform() >= rate ? keep_scale : 0.0f;
  }
  return mask;
}

Matrix multiply_reference(const Matrix& x, const Matrix& mask) {
  Matrix y = x;
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] *= mask.data()[i];
  return y;
}

namespace {

std::size_t clamped_index(const Matrix& table, std::int32_t index) {
  const auto vocab = static_cast<std::int32_t>(table.rows());
  return static_cast<std::size_t>(std::clamp<std::int32_t>(index, 0, vocab - 1));
}

}  // namespace

Matrix embedding_forward_reference(const std::vector<Matrix>& tables, const IntBatch& indices) {
  const std::size_t dim = tables.front().cols();
  Matrix out(indices.rows, tables.size() * dim);
  for (std::size_t r = 0; r < indices.rows; ++r) {
    for (std::size_t f = 0; f < tables.size(); ++f) {
      const float* src = tables[f].row(clamped_index(tables[f], indices(r, f)));
      for (std::size_t d = 0; d < dim; ++d) out(r, f * dim + d) = src[d];
    }
  }
  return out;
}

void embedding_backward_reference(const std::vector<Matrix>& tables, const IntBatch& indices,
                                  const Matrix& grad_out, std::vector<Matrix>& grads) {
  const std::size_t dim = tables.front().cols();
  grads.resize(tables.size());
  for (std::size_t f = 0; f < tables.size(); ++f) grads[f].resize(tables[f].rows(), dim);
  for (std::size_t r = 0; r < indices.rows; ++r) {
    for (std::size_t f = 0; f < tables.size(); ++f) {
      float* dst = grads[f].row(clamped_index(tables[f], indices(r, f)));
      for (std::size_t d = 0; d < dim; ++d) dst[d] += grad_out(r, f * dim + d);
    }
  }
}

// ------------------------------------------------------------ ReferenceNet

namespace {

Matrix dense_forward(const Matrix& x, const Matrix& w, const std::vector<float>& b) {
  Matrix y(x.rows(), w.cols());
  matmul_reference(x, false, w, false, y);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = 0; j < y.cols(); ++j) y(i, j) += b[j];
  }
  return y;
}

}  // namespace

// Both constructors replay the draw order of FeedForwardNet's: embedding
// tables, then per hidden layer its weights and (with dropout) its dropout
// seed, then the head's weights. Biases start at zero and draw nothing.
ReferenceNet::ReferenceNet(const std::vector<int>& vocab_sizes, std::size_t embed_dim,
                           const std::vector<std::size_t>& hidden, std::size_t classes,
                           Rng& rng, double dropout)
    : dropout_(dropout) {
  for (int vocab : vocab_sizes) {
    tables_.emplace_back(static_cast<std::size_t>(vocab), embed_dim);
    tables_.back().init_glorot(rng);
  }
  build_body(vocab_sizes.size() * embed_dim, hidden, classes, rng);
}

ReferenceNet::ReferenceNet(std::size_t input_dim, const std::vector<std::size_t>& hidden,
                           std::size_t classes, Rng& rng, double dropout)
    : dropout_(dropout) {
  build_body(input_dim, hidden, classes, rng);
}

void ReferenceNet::build_body(std::size_t in_dim, const std::vector<std::size_t>& hidden,
                              std::size_t classes, Rng& rng) {
  auto make_dense = [&rng](std::size_t in, std::size_t out) {
    Dense d;
    d.w.resize(in, out);
    d.w.init_glorot(rng);
    d.b.assign(out, 0.0f);
    d.w_grad.resize(in, out);
    d.b_grad.assign(out, 0.0f);
    return d;
  };
  std::size_t cur = in_dim;
  for (std::size_t h : hidden) {
    Hidden layer;
    layer.dense = make_dense(cur, h);
    if (dropout_ > 0.0) layer.dropout_rng = Rng(rng.next_u64());
    hidden_.push_back(std::move(layer));
    cur = h;
  }
  head_ = make_dense(cur, classes);
}

ReferenceNet::StepResult ReferenceNet::train_batch(const IntBatch& x,
                                                   const std::vector<std::int32_t>& labels,
                                                   AdamReference& opt) {
  return step(embedding_forward_reference(tables_, x), &x, labels, opt);
}

ReferenceNet::StepResult ReferenceNet::train_batch(const Matrix& x,
                                                   const std::vector<std::int32_t>& labels,
                                                   AdamReference& opt) {
  return step(x, nullptr, labels, opt);
}

ReferenceNet::StepResult ReferenceNet::step(Matrix h, const IntBatch* indices,
                                            const std::vector<std::int32_t>& labels,
                                            AdamReference& opt) {
  // Forward: Dense -> ReLU [-> dropout] per hidden layer, then the head.
  for (Hidden& layer : hidden_) {
    layer.dense.input = h;
    layer.pre_activation = dense_forward(h, layer.dense.w, layer.dense.b);
    h = relu_forward_reference(layer.pre_activation);
    if (dropout_ > 0.0) {
      layer.dropout_mask = dropout_mask_reference(layer.dropout_rng, h.rows(), h.cols(), dropout_);
      h = multiply_reference(h, layer.dropout_mask);
    }
  }
  head_.input = h;
  const LossResult loss =
      softmax_cross_entropy_reference(dense_forward(h, head_.w, head_.b), labels);

  // Backward: dW = x^T dY, db = column sums of dY, dX = dY W^T.
  auto dense_backward = [](Dense& d, const Matrix& grad_out) {
    matmul_reference(d.input, true, grad_out, false, d.w_grad);
    std::fill(d.b_grad.begin(), d.b_grad.end(), 0.0f);
    for (std::size_t i = 0; i < grad_out.rows(); ++i) {
      for (std::size_t j = 0; j < grad_out.cols(); ++j) d.b_grad[j] += grad_out(i, j);
    }
    Matrix grad_in(grad_out.rows(), d.w.rows());
    matmul_reference(grad_out, false, d.w, true, grad_in);
    return grad_in;
  };
  Matrix g = dense_backward(head_, loss.grad);
  for (auto it = hidden_.rbegin(); it != hidden_.rend(); ++it) {
    if (dropout_ > 0.0) g = multiply_reference(g, it->dropout_mask);
    g = dense_backward(it->dense, relu_backward_reference(it->pre_activation, g));
  }
  if (indices != nullptr) embedding_backward_reference(tables_, *indices, g, table_grads_);

  opt.step(params());
  return {loss.loss, loss.correct};
}

std::vector<ParamRef> ReferenceNet::params() {
  std::vector<ParamRef> out;
  for (std::size_t f = 0; f < tables_.size(); ++f) {
    float* grad = table_grads_.empty() ? nullptr : table_grads_[f].data();
    out.push_back({tables_[f].data(), grad, tables_[f].size()});
  }
  auto add_dense = [&out](Dense& d) {
    out.push_back({d.w.data(), d.w_grad.data(), d.w.size()});
    out.push_back({d.b.data(), d.b_grad.data(), d.b.size()});
  };
  for (Hidden& layer : hidden_) add_dense(layer.dense);
  add_dense(head_);
  return out;
}

}  // namespace airch::ml
