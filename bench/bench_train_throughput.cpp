// Training and serving throughput for the AIRCHITECT network. One fit —
// same seed, same data, same batch order — is timed at 1, 2, 4, … threads
// (AIRCH_THREADS, doubling up to --threads, which ends the list even when
// it is not a power of two). Every row's per-epoch loss/accuracy
// trajectory is asserted bit-identical to the 1-thread row before any
// number is reported: the thread count decides who computes what, never a
// bit of the result. (The kernels' bit-identity to the seed's plain loops
// is pinned by tests/test_ml_oracle.cpp and tests/test_matmul_kernel.cpp.)
//
// A second section measures serving at --threads: recommend_label called
// once per query (one forward pass per row) vs recommend_batch (one packed
// forward pass for the whole query set), with the label vectors asserted
// equal.
//
// Each timed fit runs --reps times and the fastest pass is reported (OS
// scheduling only ever adds time). Default sizes mirror the paper's Fig-9
// case-study-1 setup: 10k generated points, the AIrchitect embedding MLP.
//
// Emits machine-readable JSON (default BENCH_train.json):
//   results[]        — per thread count: wall seconds, epochs/sec,
//                      samples/sec, speedup over the 1-thread row
//   trajectory_bit_identical — always true if the binary got as far as
//                      writing the file (a mismatch aborts)
//   infer            — per-query microseconds, one-at-a-time vs batched
// tools/check.sh runs a tiny-points smoke of this binary and validates
// the JSON parses.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/case_study.hpp"
#include "core/recommender.hpp"
#include "dataset/encoding.hpp"
#include "models/neural.hpp"
#include "workload/sampler.hpp"

using namespace airch;

namespace {

struct FitResult {
  std::int64_t threads = 0;
  double seconds = 0.0;
  std::vector<EpochStats> history;
};

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

void set_threads(std::int64_t threads) {
  setenv("AIRCH_THREADS", std::to_string(threads).c_str(), 1);
}

/// The fastest of `reps` fits from scratch at `threads` threads. A fresh
/// model is built every pass, so reps are exact byte-for-byte reruns.
FitResult best_of_fits(std::int64_t threads, const Dataset& train, const Dataset& val,
                       const FeatureEncoder& enc, std::uint64_t seed, int epochs,
                       std::int64_t reps) {
  set_threads(threads);
  FitResult best;
  for (std::int64_t i = 0; i < reps; ++i) {
    auto model = make_airchitect(seed, epochs);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<EpochStats> history = model->fit(train, val, enc);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::max(std::chrono::duration<double>(t1 - t0).count(), 1e-9);
    if (i == 0 || seconds < best.seconds) best = {threads, seconds, std::move(history)};
  }
  return best;
}

void require_identical_trajectories(const FitResult& base, const FitResult& row) {
  if (base.history.size() != row.history.size()) {
    std::cerr << "trajectory length mismatch: " << base.threads << " thread(s) "
              << base.history.size() << " epochs, " << row.threads << " threads "
              << row.history.size() << "\n";
    std::exit(1);
  }
  for (std::size_t i = 0; i < base.history.size(); ++i) {
    const EpochStats& a = base.history[i];
    const EpochStats& b = row.history[i];
    // Exact double equality on purpose: the contract is bit-identity, not
    // closeness.
    if (a.train_loss != b.train_loss || a.train_accuracy != b.train_accuracy ||
        a.val_accuracy != b.val_accuracy) {
      std::cerr << "trajectory diverged at epoch " << a.epoch << ": loss "
                << std::setprecision(17) << a.train_loss << " at " << base.threads
                << " thread(s), " << b.train_loss << " at " << row.threads << "\n";
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_train_throughput",
                 "epoch throughput of one fit at 1, 2, 4, ... threads, trajectories bit-compared");
  args.flag_i64("points", 10000, "generated case-1 points (Fig-9 AIrchitect size)", 10, 100000000);
  args.flag_i64("epochs", 5, "training epochs per timed fit", 1, 1000);
  args.flag_i64("threads", 4, "largest thread count timed; also the serving section's", 1, 1024);
  args.flag_i64("reps", 2, "timed fits per thread count; the fastest is reported", 1, 100);
  args.flag_i64("infer-queries", 2000, "queries for the serving comparison", 1, 10000000);
  args.flag_i64("seed", 42, "dataset / model seed");
  args.flag_str("out", "BENCH_train.json", "output JSON path");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_train_throughput: " << e.what() << "\n";
    return 2;
  }

  const auto points = static_cast<std::size_t>(args.i64("points"));
  const int epochs = static_cast<int>(args.i64("epochs"));
  const std::int64_t max_threads = args.i64("threads");
  const std::int64_t reps = args.i64("reps");
  const auto n_queries = static_cast<std::size_t>(args.i64("infer-queries"));
  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));

  // Shared data setup, identical to Recommender::train's pipeline.
  const ArrayDataflowStudy study;
  Dataset data = study.generate(points, seed);
  Rng shuffle_rng(seed ^ 0xA5A5A5A5ULL);
  data.shuffle(shuffle_rng);
  auto [train, val] = data.split(0.9);
  const FeatureEncoder enc(train);

  std::vector<FitResult> rows;
  for (std::int64_t t = 1;; t = std::min(2 * t, max_threads)) {
    rows.push_back(best_of_fits(t, train, val, enc, seed, epochs, reps));
    require_identical_trajectories(rows.front(), rows.back());
    if (t == max_threads) break;
  }
  const auto train_samples = static_cast<double>(train.size()) * epochs;

  // ----------------------------------------------------------- serving
  // One trained recommender answers the same query stream one-at-a-time
  // and batched; labels must agree (argmax of logits == argmax of
  // softmax, so recommend_batch is exactly mapped recommend_label).
  set_threads(max_threads);
  Recommender::TrainOptions ropts;
  ropts.dataset_size = points;
  ropts.epochs = epochs;
  ropts.seed = seed;
  const Recommender rec = Recommender::train(study, ropts);

  const Case1Config cfg;
  Rng qrng(seed + 1);
  LogUniformGemmSampler sampler(cfg.dims);
  std::vector<std::vector<std::int64_t>> queries(n_queries);
  for (auto& q : queries) {
    const auto budget = qrng.uniform_int(cfg.budget_min_exp, cfg.budget_max_exp);
    const GemmWorkload w = sampler.sample(qrng);
    q = {budget, w.m, w.n, w.k};
  }

  std::vector<std::int32_t> one_by_one(n_queries);
  double seconds_single = 0.0;
  std::vector<std::int32_t> batched;
  double seconds_batched = 0.0;
  for (std::int64_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n_queries; ++i) one_by_one[i] = rec.recommend_label(queries[i]);
    const auto t1 = std::chrono::steady_clock::now();
    std::vector<std::int32_t> b = rec.recommend_batch(queries);
    const auto t2 = std::chrono::steady_clock::now();
    const double s1 = std::chrono::duration<double>(t1 - t0).count();
    const double s2 = std::max(std::chrono::duration<double>(t2 - t1).count(), 1e-9);
    if (r == 0 || s1 < seconds_single) seconds_single = s1;
    if (r == 0 || s2 < seconds_batched) seconds_batched = s2;
    batched = std::move(b);
  }
  for (std::size_t i = 0; i < n_queries; ++i) {
    if (one_by_one[i] != batched[i]) {
      std::cerr << "serving mismatch at query " << i << ": single " << one_by_one[i]
                << ", batched " << batched[i] << "\n";
      return 1;
    }
  }
  const double us_single = 1e6 * seconds_single / static_cast<double>(n_queries);
  const double us_batched = 1e6 * seconds_batched / static_cast<double>(n_queries);

  std::ostringstream os;
  os << "{\n  \"bench\": \"train_throughput\",\n  \"threads\": " << max_threads
     << ",\n  \"points\": " << points << ",\n  \"train_samples\": " << train.size()
     << ",\n  \"epochs\": " << epochs << ",\n  \"reps\": " << reps << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FitResult& r = rows[i];
    os << "    {\"threads\": " << r.threads << ", \"seconds\": " << fmt(r.seconds)
       << ", \"epochs_per_sec\": " << fmt(epochs / r.seconds)
       << ", \"samples_per_sec\": " << fmt(train_samples / r.seconds)
       << ", \"speedup_vs_1_thread\": " << fmt(rows.front().seconds / r.seconds) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  const EpochStats& last = rows.front().history.back();
  os << "  ],\n  \"trajectory_bit_identical\": true,\n  \"final_train_loss\": "
     << std::setprecision(17) << last.train_loss
     << ",\n  \"final_val_accuracy\": " << last.val_accuracy
     << ",\n  \"infer\": {\"queries\": " << n_queries
     << ", \"one_at_a_time_us_per_query\": " << fmt(us_single)
     << ", \"batched_us_per_query\": " << fmt(us_batched)
     << ", \"batched_speedup\": " << fmt(us_single / us_batched) << "}\n}\n";
  std::ofstream out(args.str("out"));
  out << os.str();
  std::cout << os.str();
  return 0;
}
