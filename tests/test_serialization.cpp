// Persistence: a saved encoder / classifier / recommender must reload to
// bit-identical predictions, and a model file must survive corruption the
// way datasets and snapshots do — every single-byte substitution and every
// truncation is rejected, a mutated file whose checksum was re-sealed
// either loads and answers or throws ContractViolation / runtime_error,
// and nothing else (no bad_alloc, no length_error, no over-read).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "core/recommender.hpp"
#include "dataset/encoding.hpp"
#include "models/neural.hpp"

namespace airch {
namespace {

Dataset synthetic(std::size_t n, std::uint64_t seed) {
  Dataset ds({"a", "b", "c"}, 5);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = rng.log_uniform_int(1, 4096);
    const std::int64_t b = rng.uniform_int(0, 3);
    const std::int64_t c = rng.log_uniform_int(1, 512);
    ds.add({{a, b, c}, static_cast<std::int32_t>((a + b + c) % 5)});
  }
  return ds;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrites the trailer with the digest of every byte before it, so a
/// mutated payload passes the checksum and reaches the field validators.
void reseal(std::string& bytes) {
  ByteChecksum sum;
  sum.update(reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size() - 8);
  const std::uint64_t digest = sum.digest();
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>((digest >> (8 * i)) & 0xFFu);
  }
}

void put_le(std::string& bytes, std::size_t offset, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

std::uint64_t get_le(const std::string& bytes, std::size_t offset, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[offset + i])) << (8 * i);
  }
  return v;
}

/// Round trips of one model part through a sealed binio file.
class PartFile : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ::testing::TempDir() + "serialization_test.bin"; }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes one part through `save` as a sealed binio file, then reads it
  /// back through `load`, which must consume the file up to the trailer.
  template <typename Save, typename Load>
  auto round_trip(Save&& save, Load&& load) {
    {
      BinWriter w(path_);
      save(w);
      w.put_trailer_checksum();
      w.finish();
    }
    BinReader r(path_);
    auto loaded = load(r);
    r.verify_trailer_checksum();
    EXPECT_EQ(r.remaining(), 0u);
    return loaded;
  }

  std::string path_;
};
using EncoderSerialization = PartFile;
using ClassifierSerialization = PartFile;

TEST_F(EncoderSerialization, RoundTripBuckets) {
  const Dataset ds = synthetic(500, 1);
  const FeatureEncoder enc(ds, 16);
  const FeatureEncoder loaded = round_trip([&](BinWriter& w) { enc.save(w); },
                                           [](BinReader& r) { return FeatureEncoder::load(r); });

  EXPECT_EQ(loaded.vocab_sizes(), enc.vocab_sizes());
  Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<std::int64_t> f = {rng.uniform_int(-10, 10000), rng.uniform_int(-1, 5),
                                         rng.uniform_int(0, 1000)};
    for (int col = 0; col < 3; ++col) {
      EXPECT_EQ(loaded.bucket(col, f[static_cast<std::size_t>(col)]),
                enc.bucket(col, f[static_cast<std::size_t>(col)]));
    }
    const auto a = enc.encode_float(f);
    const auto b = loaded.encode_float(f);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.data()[i], b.data()[i]);
    }
  }
}

TEST_F(EncoderSerialization, RejectsGarbage) {
  write_file(path_, "not an encoder");
  BinReader r(path_);
  EXPECT_THROW(FeatureEncoder::load(r), ContractViolation);
}

TEST(EncoderBuckets, ExtremeKeysDoNotOverflow) {
  // An exact column whose keys span the whole int64 range: the nearest-key
  // distance of a value between them does not fit a signed difference.
  Dataset ds({"x"}, 2);
  ds.add({{std::numeric_limits<std::int64_t>::min()}, 0});
  ds.add({{std::numeric_limits<std::int64_t>::max()}, 1});
  const FeatureEncoder enc(ds, 4);
  EXPECT_EQ(enc.bucket(0, -1), 0);
  EXPECT_EQ(enc.bucket(0, 1), 1);
  EXPECT_EQ(enc.bucket(0, std::numeric_limits<std::int64_t>::max() - 1), 1);
}

TEST_F(ClassifierSerialization, RoundTripPredictions) {
  const Dataset train = synthetic(1000, 3);
  const Dataset test = synthetic(300, 4);
  const FeatureEncoder enc(train);

  auto clf = make_airchitect(1, 4);
  clf->fit(train, {}, enc);
  const auto loaded = round_trip([&](BinWriter& w) { clf->save(w); },
                                 [](BinReader& r) { return NeuralClassifier::load(r); });

  EXPECT_EQ(loaded->name(), clf->name());
  EXPECT_TRUE(loaded->accepts(enc));
  EXPECT_EQ(loaded->predict(test, enc), clf->predict(test, enc));
}

TEST_F(ClassifierSerialization, FloatModalityRoundTrip) {
  const Dataset train = synthetic(1000, 5);
  const Dataset test = synthetic(200, 6);
  const FeatureEncoder enc(train);

  auto clf = make_mlp_a(1, 3);
  clf->fit(train, {}, enc);
  const auto loaded = round_trip([&](BinWriter& w) { clf->save(w); },
                                 [](BinReader& r) { return NeuralClassifier::load(r); });
  EXPECT_EQ(loaded->predict(test, enc), clf->predict(test, enc));
}

TEST_F(ClassifierSerialization, SaveBeforeFitThrows) {
  auto clf = make_mlp_a(1, 3);
  BinWriter w(path_);
  EXPECT_THROW(clf->save(w), std::logic_error);
}

TEST_F(ClassifierSerialization, TruncatedStreamRejected) {
  const Dataset train = synthetic(500, 7);
  const FeatureEncoder enc(train);
  auto clf = make_mlp_a(1, 2);
  clf->fit(train, {}, enc);
  {
    BinWriter w(path_);
    clf->save(w);
  }
  const std::string full = read_file(path_);
  write_file(path_, full.substr(0, full.size() / 2));
  BinReader r(path_);
  EXPECT_THROW(NeuralClassifier::load(r), ContractViolation);
}

class RecommenderSerialization : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ::testing::TempDir() + "rec_test.airch"; }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(RecommenderSerialization, RoundTripQueries) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 2000;
  opts.epochs = 3;
  const Recommender rec = Recommender::train(study, opts);
  rec.save(path_);

  const Recommender loaded = Recommender::load(path_, study);
  EXPECT_DOUBLE_EQ(loaded.report().val_accuracy, rec.report().val_accuracy);

  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const GemmWorkload w{rng.log_uniform_int(4, 1 << 16), rng.log_uniform_int(4, 1 << 12),
                         rng.log_uniform_int(4, 1 << 12)};
    const int budget = static_cast<int>(rng.uniform_int(5, 10));
    EXPECT_EQ(loaded.recommend_array(w, budget), rec.recommend_array(w, budget));
  }
}

TEST_F(RecommenderSerialization, WrongStudyRejected) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 1000;
  opts.epochs = 2;
  Recommender::train(study, opts).save(path_);

  SchedulingStudy other;
  EXPECT_THROW(Recommender::load(path_, other), std::runtime_error);
}

TEST_F(RecommenderSerialization, MissingFileRejected) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  EXPECT_THROW(Recommender::load("/nonexistent/rec.airch", study), std::runtime_error);
}

TEST(RecommenderTopK, OrderedAndContainsTop1) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 2000;
  opts.epochs = 3;
  const Recommender rec = Recommender::train(study, opts);

  const std::vector<std::int64_t> features = {8, 512, 128, 256};
  const auto top1 = rec.recommend_label(features);
  const auto top5 = rec.recommend_topk(features, 5);
  ASSERT_EQ(top5.size(), 5u);
  EXPECT_EQ(top5[0], top1);
  // Labels are distinct.
  for (std::size_t i = 0; i < top5.size(); ++i) {
    for (std::size_t j = i + 1; j < top5.size(); ++j) {
      EXPECT_NE(top5[i], top5[j]);
    }
  }
  // k == the full space is the largest legal request; anything outside
  // [1, num_classes] is a caller bug and is rejected, not clamped.
  EXPECT_EQ(rec.recommend_topk(features, study.num_classes()).size(),
            static_cast<std::size_t>(study.num_classes()));
  EXPECT_THROW(rec.recommend_topk(features, 0), ContractViolation);
  EXPECT_THROW(rec.recommend_topk(features, -3), ContractViolation);
  EXPECT_THROW(rec.recommend_topk(features, study.num_classes() + 1), ContractViolation);
}

TEST_F(RecommenderSerialization, ValAccuracyRoundTripsExactly) {
  // val_accuracy must reload as the same double. Pin with a value 6
  // digits cannot represent: 990 points at a 0.9 split leave 99
  // validation samples, and k/99 has a repeating decimal for every k
  // except 0 and 99.
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 990;
  opts.epochs = 2;
  const Recommender rec = Recommender::train(study, opts);

  const double acc = rec.report().val_accuracy;
  std::ostringstream six;
  six << acc;  // default 6-digit formatting
  ASSERT_NE(std::stod(six.str()), acc)
      << "val_accuracy happened to be 6-digit exact; pick a dataset_size "
         "whose validation split produces a non-terminating ratio";

  rec.save(path_);
  const Recommender loaded = Recommender::load(path_, study);
  EXPECT_EQ(loaded.report().val_accuracy, acc);
}

TEST(RecommenderFit, ReportsTheLastEpochsValidationAccuracy) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.epochs = 2;
  const Recommender rec = Recommender::fit(study, study.generate(990, 3), opts);
  ASSERT_EQ(rec.report().history.size(), 2u);
  EXPECT_EQ(rec.report().val_accuracy, rec.report().history.back().val_accuracy);
  EXPECT_GT(rec.report().val_accuracy, 0.0);
}

// ------------------------------------------------------- model-file corruption

/// A deliberately tiny case-1 model (2-wide embeddings, one 4-wide hidden
/// layer) so that the sweeps below, which load the file once per byte,
/// stay fast: its file is a few KiB.
class ModelFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "model_file_test.airch";
    bad_ = ::testing::TempDir() + "model_file_bad.airch";
    data_ = study_.generate(300, 5);
    encoder_ = std::make_unique<FeatureEncoder>(data_, 8);
    tiny_model(*encoder_).save(path_);
    good_ = read_file(path_);
    ASSERT_GT(good_.size(), 100u);
    ASSERT_LT(good_.size(), 16384u);
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(bad_.c_str());
  }

  std::unique_ptr<NeuralClassifier> tiny_classifier(const FeatureEncoder& enc,
                                                    std::size_t embed_dim = 2) const {
    NeuralClassifier::Options o;
    o.hidden = {4};
    o.embed_dim = embed_dim;
    o.epochs = 1;
    auto model = std::make_unique<NeuralClassifier>("tiny", o);
    model->fit(data_, {}, enc);
    return model;
  }
  Recommender tiny_model(const FeatureEncoder& enc) const {
    return Recommender(study_, tiny_classifier(enc), std::make_unique<FeatureEncoder>(enc));
  }

  /// Loads `bytes` as a model file. A model that loads must answer.
  void load_and_answer(const std::string& bytes) {
    write_file(bad_, bytes);
    const Recommender rec = Recommender::load(bad_, study_);
    std::vector<std::vector<std::int64_t>> queries;
    for (std::size_t i = 0; i < 8; ++i) queries.push_back(data_[i].features);
    queries.push_back({0, 0, 0, 0});
    queries.push_back({-5, std::numeric_limits<std::int64_t>::max(), 1,
                       std::numeric_limits<std::int64_t>::min()});
    const auto labels = rec.recommend_batch(queries);
    ASSERT_EQ(labels.size(), queries.size());
    for (auto label : labels) {
      ASSERT_GE(label, 0);
      ASSERT_LT(label, study_.num_classes());
    }
  }

  ArrayDataflowStudy study_{Case1Config{5, 10, {}}, 10};
  Dataset data_;
  std::unique_ptr<FeatureEncoder> encoder_;
  std::string path_;
  std::string bad_;
  std::string good_;
};

TEST_F(ModelFile, LoadsAndAnswersLikeTheSavedModel) {
  const Recommender saved = tiny_model(*encoder_);
  const Recommender loaded = Recommender::load(path_, study_);
  std::vector<std::vector<std::int64_t>> queries;
  for (std::size_t i = 0; i < data_.size(); ++i) queries.push_back(data_[i].features);
  EXPECT_EQ(loaded.recommend_batch(queries), saved.recommend_batch(queries));
  ASSERT_NO_FATAL_FAILURE(load_and_answer(good_));
}

TEST_F(ModelFile, SaveLoadSaveIsByteIdentical) {
  Recommender::load(path_, study_).save(bad_);
  EXPECT_EQ(read_file(bad_), good_);

  // The float-input modality too.
  auto mlp = tiny_classifier(*encoder_, 0);
  Recommender(study_, std::move(mlp), std::make_unique<FeatureEncoder>(*encoder_)).save(path_);
  const std::string first = read_file(path_);
  Recommender::load(path_, study_).save(bad_);
  EXPECT_EQ(read_file(bad_), first);
}

TEST_F(ModelFile, EverySingleByteSubstitutionIsRejected) {
  // The trailer covers every preceding byte, so any substitution —
  // including one in the case id or the class count — reads as
  // corruption, never as a wrong study or a loadable model.
  for (std::size_t i = 0; i < good_.size(); ++i) {
    std::string bad = good_;
    bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ 0xA5u);
    write_file(bad_, bad);
    EXPECT_THROW(Recommender::load(bad_, study_), ContractViolation)
        << "flipped byte " << i << " of " << good_.size();
  }
}

TEST_F(ModelFile, EveryTruncationLengthIsRejected) {
  for (std::size_t len = 0; len < good_.size(); ++len) {
    write_file(bad_, good_.substr(0, len));
    EXPECT_THROW(Recommender::load(bad_, study_), ContractViolation)
        << "truncated to " << len << " of " << good_.size();
  }
  write_file(bad_, good_ + '\0');
  EXPECT_THROW(Recommender::load(bad_, study_), ContractViolation) << "one trailing byte";
}

TEST_F(ModelFile, ResealedMutationsLoadAndAnswerOrThrowCleanly) {
  // Mutations re-sealed with a valid trailer, so overwritten counts,
  // widths, kinds and keys reach the validators. Each outcome must be a
  // ContractViolation, a runtime_error (the header's identity fields now
  // name another study) or a model that loads and answers; anything else
  // escapes this loop and fails the test. Offsets are drawn mostly from
  // the structural parts of the file: the header and classifier shape at
  // the front and the encoder at the back, around the float tensors.
  constexpr std::uint64_t kInteresting[] = {0,
                                            1,
                                            2,
                                            0x7F,
                                            0xFF,
                                            0x7FFFFFFF,
                                            0x80000000,
                                            0xFFFFFFFF,
                                            4590000000000ULL,
                                            0x7FFFFFFFFFFFFFFFULL,
                                            0x8000000000000000ULL,
                                            0xFFFFFFFFFFFFFFFFULL};
  const std::size_t payload = good_.size() - 8;
  const std::size_t front = std::min<std::size_t>(payload, 160);
  const std::size_t back = std::min<std::size_t>(payload, 640);
  Rng rng(20261020);
  const auto below = [&rng](std::size_t n) {  // uniform in [0, n)
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  int rejected = 0;
  int answered = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bad = good_;
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t region = below(4);
      std::size_t at = region <= 1   ? below(front)
                       : region == 2 ? payload - 1 - below(back)
                                     : below(payload);
      const std::size_t width = std::size_t{1} << below(4);  // 1, 2, 4 or 8 bytes
      if (at + width > payload) at = payload - width;
      const std::uint64_t value =
          below(2) == 0 ? kInteresting[below(std::size(kInteresting))]
                        : static_cast<std::uint64_t>(
                              rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()));
      put_le(bad, at, value, width);
    }
    reseal(bad);
    try {
      load_and_answer(bad);
      ASSERT_FALSE(HasFatalFailure()) << "trial " << trial;
      ++answered;
    } catch (const ContractViolation&) {
      ++rejected;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // Both outcomes occur, so the loop reaches the validators and the
  // query path alike.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(answered, 0);
}

TEST_F(ModelFile, WildShapesAreRejectedBeforeAllocation) {
  // The class count is a u32 in the header (offset 16) and in the
  // classifier's shape, after the header (28 bytes), the name (4 + 4),
  // embed_dim (8), the hidden count (4), the hidden width (a u64 at 48),
  // the learning rate, dropout and seed (8 each). Wild values in both
  // class counts and the width must fail a cap or the bound of the
  // tensors they imply against the file size, never size an allocation:
  // 2^24 classes behind a 2^20-wide layer would be 64 TiB of weights.
  constexpr std::size_t kHeaderClasses = 16;
  constexpr std::size_t kHiddenWidth = 48;
  constexpr std::size_t kClassifierClasses = 28 + 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8;
  const auto classes = static_cast<std::uint64_t>(study_.num_classes());
  ASSERT_EQ(get_le(good_, kHeaderClasses, 4), classes);
  ASSERT_EQ(get_le(good_, kHiddenWidth, 8), 4u);
  ASSERT_EQ(get_le(good_, kClassifierClasses, 4), classes);
  for (const std::uint64_t wild_classes : {classes, std::uint64_t{0}, std::uint64_t{1} << 24,
                                           std::uint64_t{1} << 30, std::uint64_t{0xFFFFFFFF}}) {
    for (const std::uint64_t width : {std::uint64_t{4}, std::uint64_t{1} << 20,
                                      std::uint64_t{1} << 40}) {
      if (wild_classes == classes && width == 4) continue;  // the intact file
      std::string bad = good_;
      put_le(bad, kHeaderClasses, wild_classes, 4);
      put_le(bad, kClassifierClasses, wild_classes, 4);
      put_le(bad, kHiddenWidth, width, 8);
      reseal(bad);
      write_file(bad_, bad);
      EXPECT_THROW(Recommender::load(bad_, study_), ContractViolation)
          << wild_classes << " classes, width " << width;
    }
  }
}

TEST_F(ModelFile, HeaderClassCountMismatchIsRejected) {
  // A header that claims one class more than the classifier has — and,
  // with it, another output space — is an inconsistent file, not a model
  // of another study.
  std::string bad = good_;
  put_le(bad, 16, static_cast<std::uint64_t>(study_.num_classes() + 1), 4);
  reseal(bad);
  write_file(bad_, bad);
  EXPECT_THROW(Recommender::load(bad_, study_), ContractViolation);
}

TEST_F(ModelFile, EncoderThatDoesNotMatchTheNetIsRejected) {
  // Files written by hand with an honest checksum: the classifier of this
  // fixture followed by an encoder with other vocab sizes, with fewer
  // columns, and (for a float net) with fewer columns than its input.
  const auto write_model = [&](const NeuralClassifier& model, const FeatureEncoder& enc) {
    BinWriter w(bad_);
    w.put_u64(kModelMagic);
    w.put_u32(kModelFormatVersion);
    w.put_u32(static_cast<std::uint32_t>(study_.id()));
    w.put_u32(static_cast<std::uint32_t>(study_.num_classes()));
    w.put_f64(0.0);
    model.save(w);
    enc.save(w);
    w.put_trailer_checksum();
    w.finish();
  };
  const auto embedding_net = tiny_classifier(*encoder_);
  write_model(*embedding_net, *encoder_);
  ASSERT_NO_THROW((void)Recommender::load(bad_, study_)) << "the honest control must load";

  const FeatureEncoder coarser(data_, 2);
  ASSERT_NE(coarser.vocab_sizes(), encoder_->vocab_sizes());
  write_model(*embedding_net, coarser);
  EXPECT_THROW(Recommender::load(bad_, study_), ContractViolation) << "vocab mismatch";

  Dataset three({"budget", "m", "n"}, study_.num_classes());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    three.add({{data_[i].features[0], data_[i].features[1], data_[i].features[2]}, data_[i].label});
  }
  const FeatureEncoder narrow(three, 8);
  write_model(*embedding_net, narrow);
  EXPECT_THROW(Recommender::load(bad_, study_), ContractViolation) << "column count mismatch";

  const auto float_net = tiny_classifier(*encoder_, 0);
  write_model(*float_net, narrow);
  EXPECT_THROW(Recommender::load(bad_, study_), ContractViolation) << "float input mismatch";
}

TEST_F(ModelFile, ParentTextFormatIsRejected) {
  // The text format of earlier builds is not read; such models must be
  // retrained.
  write_file(bad_,
             "airchitect-recommender v1\n1 " + std::to_string(study_.num_classes()) +
                 "\n0.5\nneural-classifier v1\ntiny\n2 1 4 0.001 0 1\n");
  EXPECT_THROW(Recommender::load(bad_, study_), ContractViolation);
}

}  // namespace
}  // namespace airch
