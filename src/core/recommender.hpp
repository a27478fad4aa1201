#pragma once
// The paper's headline artifact: a constant-time learned optimizer.
// A Recommender owns a trained AIRCHITECT network plus the feature
// encoder and output space needed to answer design queries in one
// inference (Fig. 1(b), Step 1') — no simulation, no search.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/case_study.hpp"
#include "models/neural.hpp"

namespace airch {

/// First 8 bytes of every model file ("AIRMODL1" in LE byte order);
/// exposed so tests can craft fixtures with valid checksums.
inline constexpr std::uint64_t kModelMagic = 0x314C444F4D524941ULL;
/// Bumped whenever the model file layout changes; readers reject any
/// other version instead of misparsing.
inline constexpr std::uint32_t kModelFormatVersion = 1;

struct RecommenderTrainOptions {
  std::size_t dataset_size = 50000;
  std::uint64_t seed = 42;
  int epochs = 15;
  double train_frac = 0.9;  ///< remainder is validation
};

class Recommender {
 public:
  using TrainOptions = RecommenderTrainOptions;

  struct TrainReport {
    std::vector<EpochStats> history;
    double val_accuracy = 0.0;
  };

  /// Trains an AIRCHITECT model for `study` on freshly generated data
  /// (options.dataset_size points drawn with options.seed), via fit().
  /// `study` must outlive the recommender.
  static Recommender train(const CaseStudy& study, const TrainOptions& options = {});

  /// Trains an AIRCHITECT model for `study` on `data`: shuffles it with
  /// options.seed, splits off options.train_frac for training, fits the
  /// encoder on that split, and reports the last epoch's validation
  /// accuracy. options.dataset_size is ignored. Throws
  /// std::invalid_argument when the training split is empty.
  static Recommender fit(const CaseStudy& study, Dataset data, const TrainOptions& options = {});

  /// Wraps an already-fitted classifier (ownership transferred). The
  /// encoder must produce the input the classifier reads (see
  /// NeuralClassifier::accepts); a mismatch throws ContractViolation.
  Recommender(const CaseStudy& study, std::unique_ptr<NeuralClassifier> model,
              std::unique_ptr<FeatureEncoder> encoder);

  /// Raw constant-time query: feature vector -> output-space label.
  std::int32_t recommend_label(const std::vector<std::int64_t>& features) const;

  /// Batched serving query: labels for N feature vectors via ONE packed
  /// forward pass. Equivalent to mapping recommend_label over `queries`
  /// but amortizes the per-call network overhead across the batch
  /// (bench/bench_train_throughput.cpp measures the gap).
  std::vector<std::int32_t> recommend_batch(
      const std::vector<std::vector<std::int64_t>>& queries) const;

  /// Top-k labels by predicted probability, most likely first. Useful for
  /// the hybrid mode: recommend k candidates, re-rank them with k cheap
  /// simulations instead of a full search.
  std::vector<std::int32_t> recommend_topk(const std::vector<std::int64_t>& features,
                                           int k) const;

  /// Persistence: a saved recommender can be reloaded and queried without
  /// regenerating data or retraining. A model file is one checksummed
  /// common/binio stream, all little-endian:
  ///
  ///   u64 magic ("AIRMODL1")   u32 format version   u32 case id
  ///   u32 class count          f64 val_accuracy
  ///   the classifier (NeuralClassifier::save): name, architecture,
  ///     fitted shape and vocab, each parameter tensor as raw float32
  ///   the encoder's columns (FeatureEncoder::save)
  ///   u64 trailer checksum over every preceding byte
  void save(const std::string& path) const;
  /// `study` must be the same case study (id and output-space size are
  /// verified) and must outlive the recommender. A missing file or a model
  /// of another study throws std::runtime_error. A corrupt, truncated or
  /// inconsistent file throws ContractViolation; the file is decoded and
  /// its trailer verified before anything is built from it.
  static Recommender load(const std::string& path, const CaseStudy& study);

  /// Typed queries; each checks that the underlying study matches.
  ArrayConfig recommend_array(const GemmWorkload& w, int budget_exp) const;
  MemoryConfig recommend_buffers(std::int64_t limit_kb, const GemmWorkload& w,
                                 const ArrayConfig& array, std::int64_t bandwidth) const;
  ScheduleSpace::Schedule recommend_schedule(const std::vector<GemmWorkload>& workloads) const;

  const TrainReport& report() const { return report_; }
  const CaseStudy& study() const { return *study_; }
  /// Feature arity the model was fitted with (serving-side request
  /// validation: reject a wrong-arity query before it joins a packed batch).
  int num_features() const { return encoder_->num_features(); }

 private:
  const CaseStudy* study_;
  std::unique_ptr<NeuralClassifier> model_;
  std::unique_ptr<FeatureEncoder> encoder_;
  TrainReport report_;
};

}  // namespace airch
