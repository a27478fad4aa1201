#include "ml/network.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "ml/activation.hpp"
#include "ml/dropout.hpp"

namespace airch::ml {

Matrix Sequential::forward(const Matrix& x) {
  Matrix cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur);
  return cur;
}

Matrix Sequential::infer(const Matrix& x) const {
  Matrix cur = x;
  for (const auto& layer : layers_) cur = layer->infer(cur);
  return cur;
}

Matrix Sequential::backward(const Matrix& grad_out) {
  Matrix cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) cur = (*it)->backward(cur);
  return cur;
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_) {
    auto p = layer->params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<ConstParamRef> Sequential::params() const {
  std::vector<ConstParamRef> out;
  for (const auto& layer : layers_) {
    auto p = std::as_const(*layer).params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

namespace {
void build_body(Sequential& body, std::size_t in_dim, const std::vector<std::size_t>& hidden,
                std::size_t classes, Rng& rng, double dropout) {
  std::size_t cur = in_dim;
  for (std::size_t h : hidden) {
    body.add(std::make_unique<DenseLayer>(cur, h, rng));
    body.add(std::make_unique<ReluLayer>());
    if (dropout > 0.0) body.add(std::make_unique<DropoutLayer>(dropout, rng.next_u64()));
    cur = h;
  }
  body.add(std::make_unique<DenseLayer>(cur, classes, rng));
}
}  // namespace

FeedForwardNet::FeedForwardNet(std::vector<int> vocab_sizes, std::size_t embed_dim,
                               const std::vector<std::size_t>& hidden, std::size_t classes,
                               Rng& rng, double dropout)
    : embedding_(std::make_unique<EmbeddingBag>(std::move(vocab_sizes), embed_dim, rng)),
      classes_(classes) {
  build_body(body_, embedding_->output_dim(), hidden, classes, rng, dropout);
}

FeedForwardNet::FeedForwardNet(std::size_t input_dim, const std::vector<std::size_t>& hidden,
                               std::size_t classes, Rng& rng, double dropout)
    : classes_(classes) {
  build_body(body_, input_dim, hidden, classes, rng, dropout);
}

Matrix FeedForwardNet::infer_logits(const IntBatch& x) const {
  if (!embedding_) throw std::logic_error("net has no embedding front-end");
  return body_.infer(embedding_->infer(x));
}

Matrix FeedForwardNet::infer_logits(const Matrix& x) const {
  if (embedding_) throw std::logic_error("net expects integer (embedding) input");
  return body_.infer(x);
}

TrainStats FeedForwardNet::apply_loss_and_step(const Matrix& logits_out,
                                               const std::vector<std::int32_t>& y,
                                               Adam& opt) {
  const LossResult lr = softmax_cross_entropy(logits_out, y);
  const Matrix grad_in = body_.backward(lr.grad);
  if (embedding_) embedding_->backward(grad_in);
  opt.step(params());
  return {lr.loss, lr.correct, y.size()};
}

TrainStats FeedForwardNet::train_batch(const IntBatch& x, const std::vector<std::int32_t>& y,
                                       Adam& opt) {
  if (!embedding_) throw std::logic_error("net has no embedding front-end");
  AIRCH_ASSERT(x.rows == y.size());
  return apply_loss_and_step(body_.forward(embedding_->forward(x)), y, opt);
}

TrainStats FeedForwardNet::train_batch(const Matrix& x, const std::vector<std::int32_t>& y,
                                       Adam& opt) {
  if (embedding_) throw std::logic_error("net expects integer (embedding) input");
  AIRCH_ASSERT(x.rows() == y.size());
  return apply_loss_and_step(body_.forward(x), y, opt);
}

std::vector<std::int32_t> FeedForwardNet::predict(const IntBatch& x) const {
  return argmax_rows(infer_logits(x));
}

std::vector<std::int32_t> FeedForwardNet::predict(const Matrix& x) const {
  return argmax_rows(infer_logits(x));
}

std::vector<ParamRef> FeedForwardNet::params() {
  std::vector<ParamRef> out;
  if (embedding_) out = embedding_->params();
  auto body = body_.params();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<ConstParamRef> FeedForwardNet::params() const {
  std::vector<ConstParamRef> out;
  if (embedding_) out = std::as_const(*embedding_).params();
  auto body = std::as_const(body_).params();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace airch::ml
