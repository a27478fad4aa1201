// train: one AIRCHITECT model per case study, as train_recommender builds
// them. Set-up generates, shuffles, splits and encodes the three training
// sets; each job then runs NeuralClassifier::fit with a fixed seed and epoch
// count and saves the model with Recommender::save. A set-up precedes every
// job, so set-up time is sampled across the whole run, not only in its first
// second; every set-up rebuilds the same sets from the seed.
//
// Files (--files): three model files.
// Checks: every fit, on sets from its own set-up, reproduces the first fit's
// per-epoch trajectory bit for bit, and every saved model reloads and
// answers held-out queries exactly as the in-memory model does.
//
// The traced run also replays ml::FeedForwardNet::train_batch at the fit's
// batch shape, so fit time splits into steps and the rest of the loop.

#include <algorithm>
#include <array>
#include <cstddef>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "bench.hpp"
#include "core/recommender.hpp"
#include "ml/network.hpp"
#include "models/neural.hpp"

namespace perfbench {
namespace {

using airch::Dataset;

constexpr std::size_t kTrainPoints = 10000;
constexpr int kEpochs = 3;
constexpr double kTrainFraction = 0.9;
/// Held-out points each saved model answers after reloading.
constexpr std::size_t kHeldOut = 256;

struct TrainSet {
  Dataset train;
  Dataset val;
  std::optional<airch::FeatureEncoder> encoder;
};

bool same_history(const std::vector<airch::EpochStats>& a,
                  const std::vector<airch::EpochStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].epoch != b[i].epoch || a[i].train_loss != b[i].train_loss ||
        a[i].train_accuracy != b[i].train_accuracy || a[i].val_accuracy != b[i].val_accuracy) {
      return false;
    }
  }
  return true;
}

/// Replays the fit's loop step by step: the same initial weights, shuffles,
/// batches and optimizer as NeuralClassifier::fit, with a span around each
/// ml::FeedForwardNet::train_batch call only, so the fit's remaining time is
/// the shuffle, gather and validation around the steps. (The matmul kernel
/// skips zero activations, so step cost depends on the weights; replaying
/// the real trajectory keeps the steps comparable.)
void replay_train_steps(const TrainSet& set, int case_id, std::uint64_t seed, Tracer& tracer) {
  const auto proto = airch::make_airchitect(seed, kEpochs);
  const auto& o = proto->options();
  airch::Rng init(o.seed);
  airch::ml::FeedForwardNet net(set.encoder->vocab_sizes(), o.embed_dim, o.hidden,
                                static_cast<std::size_t>(set.train.num_classes()), init,
                                o.dropout);
  airch::ml::Adam adam(o.learning_rate);
  airch::Rng rng(o.seed);
  std::vector<std::size_t> order(set.train.size());
  std::iota(order.begin(), order.end(), 0);
  airch::ml::IntBatch batch;
  std::vector<std::int32_t> labels;
  std::int64_t step = 0;
  for (int epoch = 1; epoch <= o.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t begin = 0; begin < order.size(); begin += o.batch_size, ++step) {
      const std::size_t end = std::min(order.size(), begin + o.batch_size);
      set.encoder->encode_int_gather_into(set.train, order, begin, end, batch);
      labels.resize(end - begin);
      for (std::size_t i = begin; i < end; ++i) labels[i - begin] = set.train[order[i]].label;
      auto s = tracer.layer("ml.train_step", case_id, step);
      (void)net.train_batch(batch, labels, adam);
    }
  }
}

}  // namespace

int run_train(const Options& opt, Tracer& tracer, Report& report) {
  if (opt.files.size() != kCases) throw std::invalid_argument("train needs 3 files");

  std::array<std::unique_ptr<airch::CaseStudy>, kCases> studies;
  std::array<TrainSet, kCases> sets;
  std::array<std::vector<airch::EpochStats>, kCases> first;
  double items = 0;
  const Clock::time_point start = Clock::now();
  for (std::int64_t job = 0; job == 0 || seconds_since(start) < opt.seconds; ++job) {
    {
      auto s = tracer.e2e("setup", 0, job);
      studies = make_studies();
      for (int c = 0; c < kCases; ++c) {
        auto& set = sets[static_cast<std::size_t>(c)];
        Dataset data;
        {
          auto g = tracer.layer("dataset.generate", c + 1, job);
          data = studies[static_cast<std::size_t>(c)]->generate(kTrainPoints, opt.seed);
        }
        airch::Rng rng(opt.seed ^ 0xA5A5A5A5ULL);
        data.shuffle(rng);
        std::tie(set.train, set.val) = data.split(kTrainFraction);
        auto e = tracer.layer("dataset.encode", c + 1, job);
        set.encoder.emplace(set.train);
      }
    }

    std::array<std::optional<airch::Recommender>, kCases> recs;
    std::array<std::vector<airch::EpochStats>, kCases> history;
    {
      auto j = tracer.e2e("job", 0, job);
      for (int c = 0; c < kCases; ++c) {
        const auto i = static_cast<std::size_t>(c);
        auto model = airch::make_airchitect(opt.seed, kEpochs);
        {
          auto s = tracer.layer("models.fit", c + 1, job);
          history[i] = model->fit(sets[i].train, sets[i].val, *sets[i].encoder);
        }
        recs[i].emplace(*studies[i], std::move(model),
                        std::make_unique<airch::FeatureEncoder>(*sets[i].encoder));
        auto s = tracer.layer("core.save", c + 1, job);
        recs[i]->save(opt.files[i]);
      }
    }

    for (int c = 0; c < kCases; ++c) {
      const auto i = static_cast<std::size_t>(c);
      const std::string tag = " (case " + std::to_string(c + 1) + ", job " +
                              std::to_string(job) + ")";
      if (job == 0) first[i] = history[i];
      report.check(same_history(history[i], first[i]), "fit trajectory changed" + tag);

      std::vector<std::vector<std::int64_t>> held_out;
      for (std::size_t p = 0; p < std::min(kHeldOut, sets[i].val.size()); ++p) {
        held_out.push_back(sets[i].val[p].features);
      }
      const airch::Recommender reloaded = airch::Recommender::load(opt.files[i], *studies[i]);
      report.check(reloaded.recommend_batch(held_out) == recs[i]->recommend_batch(held_out),
                   "reloaded model answers differently" + tag);

      const std::size_t n = sets[i].train.size();
      const std::string k = ".case" + std::to_string(c + 1);
      report.counters["models.val_accuracy" + k] =
          history[i].empty() ? 0.0 : history[i].back().val_accuracy;
      report.counters["core.model_mb" + k] = file_mb(opt.files[i]);
      items += static_cast<double>(n) * static_cast<double>(history[i].size());
    }
  }
  report.counters["items"] = items;
  report.counters["peak_rss_mb"] = peak_rss_mb();  // before the replay below

  if (tracer.layers()) {
    for (int c = 0; c < kCases; ++c) {
      replay_train_steps(sets[static_cast<std::size_t>(c)], c + 1, opt.seed, tracer);
    }
  }
  return 0;
}

}  // namespace perfbench
