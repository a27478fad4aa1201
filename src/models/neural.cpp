#include "models/neural.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "dataset/binary_io.hpp"

namespace airch {

namespace {
constexpr std::size_t kPredictChunk = 2048;

/// Caps on the shape a loaded classifier may declare: far above any model
/// here (12 inputs, one 256-wide hidden layer, 1944 classes), and small
/// enough that no product of them overflows param_floats().
constexpr std::uint32_t kMaxNameBytes = 256;
constexpr std::uint32_t kMaxLayers = 64;
constexpr std::uint64_t kMaxWidth = 1u << 20;  ///< hidden or embedding width
constexpr std::uint32_t kMaxClasses = 1u << 24;
constexpr std::uint64_t kMaxInputs = 4096;
constexpr std::uint32_t kMaxVocab = 1u << 24;

/// Floats in all parameter tensors of a net of this shape (embedding
/// tables, then each dense layer's weights and bias), so a loaded shape
/// can be checked against the bytes left before the net is allocated.
std::uint64_t param_floats(const std::vector<int>& vocab, std::size_t embed_dim,
                           std::size_t input_dim, const std::vector<std::size_t>& hidden,
                           std::size_t classes) {
  std::uint64_t total = 0;
  std::uint64_t width = input_dim;
  if (!vocab.empty()) {
    for (int v : vocab) total += static_cast<std::uint64_t>(v) * embed_dim;
    width = vocab.size() * embed_dim;
  }
  for (std::size_t h : hidden) {
    total += width * h + h;
    width = h;
  }
  return total + width * classes + classes;
}

}  // namespace

template <typename ForEachChunk>
std::vector<EpochStats> NeuralClassifier::train_epochs(int num_features, int num_classes,
                                                       const Dataset& val,
                                                       const FeatureEncoder& enc,
                                                       ForEachChunk&& for_each_chunk) {
  Rng rng(options_.seed);
  fitted_input_dim_ = static_cast<std::size_t>(num_features);
  fitted_vocab_ = uses_embedding() ? enc.vocab_sizes() : std::vector<int>{};
  build_net(static_cast<std::size_t>(num_classes), fitted_input_dim_, fitted_vocab_);
  ml::Adam opt(options_.learning_rate);
  const ml::ExponentialDecaySchedule lr_schedule{options_.learning_rate, options_.lr_decay};

  // Per-batch input buffers are hoisted out of the epoch loop: every full
  // batch has the same shape, so the gather encoders refill the same
  // storage and steady-state epochs allocate nothing here.
  ml::IntBatch int_batch;
  ml::Matrix float_batch;
  std::vector<std::int32_t> labels;
  ml::TrainStats epoch_stats;
  const auto train_chunk = [&](const Dataset& chunk, const std::vector<std::size_t>& order) {
    for (std::size_t begin = 0; begin < chunk.size(); begin += options_.batch_size) {
      const std::size_t end = std::min(chunk.size(), begin + options_.batch_size);
      labels.resize(end - begin);
      for (std::size_t i = begin; i < end; ++i) labels[i - begin] = chunk[order[i]].label;
      if (uses_embedding()) {
        enc.encode_int_gather_into(chunk, order, begin, end, int_batch);
        epoch_stats += net_->train_batch(int_batch, labels, opt);
      } else {
        enc.encode_float_gather_into(chunk, order, begin, end, float_batch);
        epoch_stats += net_->train_batch(float_batch, labels, opt);
      }
    }
  };

  std::vector<EpochStats> history;
  double best_val = -1.0;
  int epochs_since_best = 0;
  for (int epoch = 1; epoch <= options_.epochs; ++epoch) {
    opt.set_learning_rate(lr_schedule(epoch));
    epoch_stats = {};
    for_each_chunk(rng, train_chunk);

    const bool log_epoch = epoch % options_.log_every_epochs == 0 || epoch == options_.epochs;
    const bool need_val = !val.empty() && (options_.early_stop_patience > 0 || log_epoch);
    const double val_acc = need_val ? accuracy(val, enc) : 0.0;
    if (log_epoch) {
      EpochStats es;
      es.epoch = epoch;
      es.train_loss = epoch_stats.loss;
      es.train_accuracy = epoch_stats.count > 0 ? static_cast<double>(epoch_stats.correct) /
                                                      static_cast<double>(epoch_stats.count)
                                                : 0.0;
      es.val_accuracy = val_acc;
      history.push_back(es);
    }
    if (options_.early_stop_patience > 0 && !val.empty()) {
      if (val_acc > best_val) {
        best_val = val_acc;
        epochs_since_best = 0;
      } else if (++epochs_since_best >= options_.early_stop_patience) {
        break;  // the paper's case 2 overfits past ~22 epochs; stop here
      }
    }
  }
  return history;
}

std::vector<EpochStats> NeuralClassifier::fit(const Dataset& train, const Dataset& val,
                                              const FeatureEncoder& enc) {
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  return train_epochs(train.num_features(), train.num_classes(), val, enc,
                      [&](Rng& rng, const auto& train_chunk) {
                        rng.shuffle(order);
                        train_chunk(train, order);
                      });
}

std::vector<EpochStats> NeuralClassifier::fit_stream(BatchStream& train, const Dataset& val,
                                                     const FeatureEncoder& enc,
                                                     std::size_t chunk_points) {
  if (chunk_points == 0) throw std::invalid_argument("chunk_points must be positive");
  Dataset chunk;
  // One order vector per chunk position, persisted across epochs: fit()
  // re-shuffles its (already shuffled) order every epoch rather than
  // re-shuffling a fresh iota, and the chunk boundaries are identical
  // every epoch, so persisting reproduces that exact permutation walk.
  std::vector<std::vector<std::size_t>> orders;
  // Shuffling is per chunk (the whole point of streaming is never holding
  // more than one chunk), so when one chunk covers the file this
  // degenerates to fit()'s full shuffle with the identical Rng sequence —
  // the bit-identity contract tested in tests/test_binary_io.cpp.
  return train_epochs(train.num_features(), train.num_classes(), val, enc,
                      [&](Rng& rng, const auto& train_chunk) {
                        train.reset();
                        for (std::size_t c = 0; train.next_batch(chunk_points, chunk); ++c) {
                          if (c == orders.size()) {
                            orders.emplace_back(chunk.size());
                            std::iota(orders.back().begin(), orders.back().end(), 0);
                          }
                          rng.shuffle(orders[c]);
                          train_chunk(chunk, orders[c]);
                        }
                      });
}

std::vector<std::int32_t> NeuralClassifier::predict(const Dataset& ds,
                                                    const FeatureEncoder& enc) const {
  if (!net_) throw std::logic_error("predict before fit");
  std::vector<std::int32_t> out;
  out.reserve(ds.size());
  for (std::size_t begin = 0; begin < ds.size(); begin += kPredictChunk) {
    const std::size_t end = std::min(ds.size(), begin + kPredictChunk);
    std::vector<std::int32_t> chunk;
    if (uses_embedding()) {
      chunk = net_->predict(enc.encode_int(ds, begin, end));
    } else {
      chunk = net_->predict(enc.encode_float(ds, begin, end));
    }
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

std::vector<std::int32_t> NeuralClassifier::predict_batch(
    const std::vector<std::vector<std::int64_t>>& queries, const FeatureEncoder& enc) const {
  if (!net_) throw std::logic_error("predict before fit");
  if (queries.empty()) return {};
  // One packed forward for the whole query set: the matmul kernel works on
  // a (N x input_dim) batch instead of N single-row products.
  if (uses_embedding()) return net_->predict(enc.encode_int_batch(queries));
  return net_->predict(enc.encode_float_batch(queries));
}

std::vector<float> NeuralClassifier::predict_proba(const std::vector<std::int64_t>& features,
                                                   const FeatureEncoder& enc) const {
  if (!net_) throw std::logic_error("predict before fit");
  ml::Matrix logits = uses_embedding() ? net_->infer_logits(enc.encode_int(features))
                                       : net_->infer_logits(enc.encode_float(features));
  ml::softmax_rows(logits);
  return std::vector<float>(logits.row(0), logits.row(0) + logits.cols());
}

void NeuralClassifier::build_net(std::size_t classes, std::size_t input_dim,
                                 const std::vector<int>& vocab) {
  Rng rng(options_.seed);
  if (uses_embedding()) {
    net_ = std::make_unique<ml::FeedForwardNet>(vocab, options_.embed_dim, options_.hidden,
                                                classes, rng, options_.dropout);
  } else {
    net_ = std::make_unique<ml::FeedForwardNet>(input_dim, options_.hidden, classes, rng,
                                                options_.dropout);
  }
}

bool NeuralClassifier::accepts(const FeatureEncoder& enc) const {
  return net_ && static_cast<std::size_t>(enc.num_features()) == fitted_input_dim_ &&
         (!uses_embedding() || enc.vocab_sizes() == fitted_vocab_);
}

void NeuralClassifier::save(BinWriter& w) const {
  if (!net_) throw std::logic_error("save before fit");
  w.put_u32(static_cast<std::uint32_t>(name_.size()));
  w.put_bytes(name_.data(), name_.size());
  w.put_u64(options_.embed_dim);
  w.put_u32(static_cast<std::uint32_t>(options_.hidden.size()));
  for (auto h : options_.hidden) w.put_u64(h);
  w.put_f64(options_.learning_rate);
  w.put_f64(options_.dropout);
  w.put_u64(options_.seed);
  w.put_u32(static_cast<std::uint32_t>(net_->num_classes()));
  w.put_u64(fitted_input_dim_);
  w.put_u32(static_cast<std::uint32_t>(fitted_vocab_.size()));
  for (auto v : fitted_vocab_) w.put_i32(v);
  const auto params = std::as_const(*net_).params();
  w.put_u32(static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) {
    w.put_u64(p.size);
    w.put_f32s(p.value, p.size);
  }
}

std::unique_ptr<NeuralClassifier> NeuralClassifier::load(BinReader& r) {
  const std::uint32_t name_bytes = r.get_u32();
  AIRCH_CHECK(name_bytes <= kMaxNameBytes && name_bytes <= r.remaining(),
              "corrupt classifier name length");
  std::string name(name_bytes, '\0');
  r.get_bytes(name.data(), name_bytes);

  Options o;
  o.embed_dim = r.get_u64();
  AIRCH_CHECK(o.embed_dim <= kMaxWidth, "corrupt embedding width");
  const std::uint32_t layers = r.get_u32();
  AIRCH_CHECK(layers <= kMaxLayers && layers <= r.remaining() / 8, "corrupt hidden layer count");
  o.hidden.resize(layers);
  for (auto& h : o.hidden) {
    h = r.get_u64();
    AIRCH_CHECK(h >= 1 && h <= kMaxWidth, "corrupt hidden width");
  }
  o.learning_rate = r.get_f64();
  o.dropout = r.get_f64();
  AIRCH_CHECK(o.dropout >= 0.0 && o.dropout < 1.0, "corrupt dropout rate");
  o.seed = r.get_u64();

  const std::uint32_t classes = r.get_u32();
  AIRCH_CHECK(classes >= 1 && classes <= kMaxClasses, "corrupt classifier class count");
  const std::uint64_t input_dim = r.get_u64();
  AIRCH_CHECK(input_dim >= 1 && input_dim <= kMaxInputs, "corrupt classifier input width");
  const std::uint32_t vocab_count = r.get_u32();
  // An embedding net has one table per input; a float net has none.
  AIRCH_CHECK(vocab_count == (o.embed_dim > 0 ? input_dim : 0),
              "classifier vocab count does not match its input");
  AIRCH_CHECK(vocab_count <= r.remaining() / 4, "truncated vocab sizes");
  std::vector<int> vocab(vocab_count);
  for (auto& v : vocab) {
    v = r.get_i32();
    AIRCH_CHECK(v >= 1 && static_cast<std::uint32_t>(v) <= kMaxVocab, "corrupt vocab size");
  }
  AIRCH_CHECK(param_floats(vocab, o.embed_dim, input_dim, o.hidden, classes) <= r.remaining() / 4,
              "classifier tensors exceed the file size");

  auto clf = std::make_unique<NeuralClassifier>(std::move(name), o);
  clf->fitted_input_dim_ = input_dim;
  clf->fitted_vocab_ = std::move(vocab);
  clf->build_net(classes, input_dim, clf->fitted_vocab_);

  const auto params = clf->net_->params();
  AIRCH_CHECK(r.get_u32() == params.size(), "classifier tensor count does not match its shape");
  for (const auto& p : params) {
    AIRCH_CHECK(r.get_u64() == p.size, "classifier tensor size does not match its shape");
    r.get_f32s(p.value, p.size);
  }
  return clf;
}

std::unique_ptr<NeuralClassifier> make_mlp_a(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.epochs = epochs;
  o.hidden = {128};
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("MLP-A", o);
}

std::unique_ptr<NeuralClassifier> make_mlp_b(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.epochs = epochs;
  o.hidden = {256};
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("MLP-B", o);
}

std::unique_ptr<NeuralClassifier> make_mlp_c(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.epochs = epochs;
  o.hidden = {128, 128};
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("MLP-C", o);
}

std::unique_ptr<NeuralClassifier> make_mlp_d(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.epochs = epochs;
  o.hidden = {256, 256};
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("MLP-D", o);
}

std::unique_ptr<NeuralClassifier> make_airchitect(std::uint64_t seed, int epochs) {
  NeuralClassifier::Options o;
  o.hidden = {256};
  o.embed_dim = 16;
  o.epochs = epochs;
  o.seed = seed;
  return std::make_unique<NeuralClassifier>("AIrchitect", o);
}

}  // namespace airch
