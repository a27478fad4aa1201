#include "models/neural.hpp"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "dataset/binary_io.hpp"

namespace airch {

namespace {
constexpr std::size_t kPredictChunk = 2048;
}

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

void NeuralClassifier::save(std::ostream& os) const {
  if (!net_) throw std::logic_error("save before fit");
  os << "neural-classifier v1\n";
  os << name_ << '\n';
  os.precision(17);
  os << options_.embed_dim << ' ' << options_.hidden.size();
  for (auto h : options_.hidden) os << ' ' << h;
  os << ' ' << options_.learning_rate << ' ' << options_.dropout << ' ' << options_.seed << '\n';
  os << net_->num_classes() << ' ' << fitted_input_dim_ << ' ' << fitted_vocab_.size();
  for (auto v : fitted_vocab_) os << ' ' << v;
  os << '\n';
  // Weights, one tensor per line. float -> text round-trips exactly at
  // max_digits10 = 9 significant digits.
  os.precision(9);
  const auto params = std::as_const(*net_).params();
  os << params.size() << '\n';
  for (const auto& p : params) {
    os << p.size;
    for (std::size_t i = 0; i < p.size; ++i) os << ' ' << p.value[i];
    os << '\n';
  }
}

std::unique_ptr<NeuralClassifier> NeuralClassifier::load(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "neural-classifier" || version != "v1") {
    throw std::runtime_error("bad neural-classifier header");
  }
  std::string name;
  if (!(is >> name)) throw std::runtime_error("bad classifier name");
  Options o;
  std::size_t hidden_count = 0;
  if (!(is >> o.embed_dim >> hidden_count)) throw std::runtime_error("bad architecture");
  o.hidden.resize(hidden_count);
  for (auto& h : o.hidden) {
    if (!(is >> h)) throw std::runtime_error("bad hidden dims");
  }
  if (!(is >> o.learning_rate >> o.dropout >> o.seed)) {
    throw std::runtime_error("bad hyperparameters");
  }

  std::size_t classes = 0, input_dim = 0, vocab_count = 0;
  if (!(is >> classes >> input_dim >> vocab_count)) throw std::runtime_error("bad shape line");
  std::vector<int> vocab(vocab_count);
  for (auto& v : vocab) {
    if (!(is >> v)) throw std::runtime_error("bad vocab sizes");
  }

  auto clf = std::make_unique<NeuralClassifier>(name, o);
  clf->fitted_input_dim_ = input_dim;
  clf->fitted_vocab_ = vocab;
  clf->build_net(classes, input_dim, vocab);

  std::size_t param_count = 0;
  if (!(is >> param_count)) throw std::runtime_error("bad parameter count");
  auto params = clf->net_->params();
  if (params.size() != param_count) throw std::runtime_error("parameter tensor count mismatch");
  for (const auto& p : params) {
    std::size_t size = 0;
    if (!(is >> size) || size != p.size) throw std::runtime_error("parameter size mismatch");
    for (std::size_t i = 0; i < p.size; ++i) {
      if (!(is >> p.value[i])) throw std::runtime_error("truncated weights");
    }
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
