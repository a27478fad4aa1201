#include "ml/dense.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace airch::ml {

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      w_(in_dim, out_dim),
      b_(out_dim, 0.0f) {
  if (in_dim == 0 || out_dim == 0) throw std::invalid_argument("zero-sized dense layer");
  w_.init_glorot(rng);
}

Matrix DenseLayer::forward(const Matrix& x) {
  cached_input_ = x;
  return infer(x);
}

Matrix DenseLayer::infer(const Matrix& x) const {
  AIRCH_ASSERT(x.cols() == in_dim_);
  // The output lives on the caller's stack and the matmul scratch is
  // thread_local, so any number of threads can infer through one shared
  // layer.
  Matrix y(x.rows(), out_dim_);
  matmul(x, false, w_, false, y);
  add_row_broadcast(y, b_);
  return y;
}

Matrix DenseLayer::backward(const Matrix& grad_out) {
  AIRCH_ASSERT(grad_out.rows() == cached_input_.rows() && grad_out.cols() == out_dim_);
  // dW = x^T * dY ; db = column sums of dY ; dX = dY * W^T
  if (w_grad_.empty()) w_grad_.resize(in_dim_, out_dim_);  // first backward
  matmul(cached_input_, true, grad_out, false, w_grad_);
  column_sums(grad_out, b_grad_);
  Matrix grad_in(grad_out.rows(), in_dim_);
  matmul(grad_out, false, w_, true, grad_in);
  return grad_in;
}

std::vector<ParamRef> DenseLayer::params() {
  const bool has_grads = !w_grad_.empty();
  return {{w_.data(), has_grads ? w_grad_.data() : nullptr, w_.size()},
          {b_.data(), has_grads ? b_grad_.data() : nullptr, b_.size()}};
}

std::vector<ConstParamRef> DenseLayer::params() const {
  return {{w_.data(), w_.size()}, {b_.data(), b_.size()}};
}

std::size_t DenseLayer::output_dim(std::size_t input_dim) const {
  AIRCH_ASSERT(input_dim == in_dim_);
  (void)input_dim;
  return out_dim_;
}

}  // namespace airch::ml
