#include "dataset/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/check.hpp"

namespace airch {
namespace {

/// Stored standard deviations are at least this (fit() replaces a smaller
/// one by 1), so standardize() never divides by zero.
constexpr double kMinStddev = 1e-9;
/// log1p of any int64 is below 44, so fit() never produces a log1p mean or
/// standard deviation above this; a loaded one that exceeds it is corrupt.
constexpr double kMaxLogMoment = 64.0;
/// Caps on a loaded encoder's column count and keys per column. Far above
/// any fit (case 3 has 12 columns, max_vocab defaults to 64), and a column
/// never holds more keys than an int vocab can number.
constexpr std::uint32_t kMaxColumns = 4096;
constexpr std::uint32_t kMaxKeys = 1u << 24;
/// Smallest encoded column: kind, two moments, key count and one key.
constexpr std::uint64_t kMinColumnBytes = 4 + 8 + 8 + 4 + 8;

}  // namespace

std::int32_t FeatureEncoder::Column::bucket_of(std::int64_t v) const {
  std::int32_t bucket = 0;
  if (exact) {
    // Unseen values map to the nearest known value's bucket.
    auto it = value_to_index.lower_bound(v);
    if (it == value_to_index.end()) {
      bucket = std::prev(it)->second;
    } else if (it->first == v || it == value_to_index.begin()) {
      bucket = it->second;
    } else {
      // prev->first < v < it->first: both distances fit in uint64_t even
      // where their signed difference would overflow.
      auto prev = std::prev(it);
      const auto below = static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(prev->first);
      const auto above = static_cast<std::uint64_t>(it->first) - static_cast<std::uint64_t>(v);
      bucket = below <= above ? prev->second : it->second;
    }
  } else {
    const auto it = std::lower_bound(boundaries.begin(), boundaries.end(), v);
    bucket = static_cast<std::int32_t>(it - boundaries.begin());
  }
  // Embedding tables are sized from vocab(); an out-of-range bucket would
  // index past the table.
  AIRCH_DCHECK(bucket >= 0 && bucket < vocab(), "bucket outside embedding vocab range");
  return bucket;
}

int FeatureEncoder::Column::vocab() const {
  return exact ? static_cast<int>(value_to_index.size())
               : static_cast<int>(boundaries.size()) + 1;
}

float FeatureEncoder::Column::standardize(std::int64_t v) const {
  const double z = (std::log1p(static_cast<double>(std::max<std::int64_t>(v, 0))) - mean) / stddev;
  return static_cast<float>(z);
}

FeatureEncoder::FeatureEncoder(const Dataset& train, int max_vocab) {
  if (train.empty()) throw std::invalid_argument("cannot fit encoder on empty dataset");
  if (max_vocab < 2) throw std::invalid_argument("max_vocab must be >= 2");
  const int nf = train.num_features();
  columns_.resize(static_cast<std::size_t>(nf));

  std::vector<std::int64_t> values(train.size());
  for (int col = 0; col < nf; ++col) {
    Column& c = columns_[static_cast<std::size_t>(col)];
    for (std::size_t i = 0; i < train.size(); ++i) {
      values[i] = train[i].features[static_cast<std::size_t>(col)];
    }

    // Float statistics in log1p space.
    double sum = 0.0;
    for (auto v : values) sum += std::log1p(static_cast<double>(std::max<std::int64_t>(v, 0)));
    c.mean = sum / static_cast<double>(values.size());
    double var = 0.0;
    for (auto v : values) {
      const double d = std::log1p(static_cast<double>(std::max<std::int64_t>(v, 0))) - c.mean;
      var += d * d;
    }
    c.stddev = std::sqrt(var / static_cast<double>(values.size()));
    if (c.stddev < kMinStddev) c.stddev = 1.0;  // constant column

    // Bucket vocabulary.
    std::vector<std::int64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::int64_t> unique = sorted;
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    if (static_cast<int>(unique.size()) <= max_vocab) {
      c.exact = true;
      for (std::size_t i = 0; i < unique.size(); ++i) {
        c.value_to_index[unique[i]] = static_cast<std::int32_t>(i);
      }
    } else {
      // Rank-quantile boundaries: max_vocab-1 cuts -> max_vocab buckets.
      c.exact = false;
      for (int q = 1; q < max_vocab; ++q) {
        const auto rank = static_cast<std::size_t>(
            static_cast<double>(q) / max_vocab * static_cast<double>(sorted.size()));
        c.boundaries.push_back(sorted[std::min(rank, sorted.size() - 1)]);
      }
      c.boundaries.erase(std::unique(c.boundaries.begin(), c.boundaries.end()),
                         c.boundaries.end());
    }
  }
}

std::vector<int> FeatureEncoder::vocab_sizes() const {
  std::vector<int> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c.vocab());
  return out;
}

std::int32_t FeatureEncoder::bucket(int col, std::int64_t value) const {
  AIRCH_DCHECK(col >= 0 && static_cast<std::size_t>(col) < columns_.size(),
               "feature column index out of range");
  return columns_[static_cast<std::size_t>(col)].bucket_of(value);
}

ml::IntBatch FeatureEncoder::encode_int(const Dataset& ds, std::size_t begin,
                                        std::size_t end) const {
  if (ds.num_features() != num_features()) throw std::invalid_argument("feature arity mismatch");
  ml::IntBatch out;
  out.resize(end - begin, columns_.size());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(i - begin, f) = columns_[f].bucket_of(ds[i].features[f]);
    }
  }
  return out;
}

ml::Matrix FeatureEncoder::encode_float(const Dataset& ds, std::size_t begin,
                                        std::size_t end) const {
  if (ds.num_features() != num_features()) throw std::invalid_argument("feature arity mismatch");
  ml::Matrix out(end - begin, columns_.size());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(i - begin, f) = columns_[f].standardize(ds[i].features[f]);
    }
  }
  return out;
}

ml::IntBatch FeatureEncoder::encode_int_gather(const Dataset& ds,
                                               const std::vector<std::size_t>& idx,
                                               std::size_t begin, std::size_t end) const {
  ml::IntBatch out;
  encode_int_gather_into(ds, idx, begin, end, out);
  return out;
}

ml::Matrix FeatureEncoder::encode_float_gather(const Dataset& ds,
                                               const std::vector<std::size_t>& idx,
                                               std::size_t begin, std::size_t end) const {
  ml::Matrix out;
  encode_float_gather_into(ds, idx, begin, end, out);
  return out;
}

void FeatureEncoder::encode_int_gather_into(const Dataset& ds,
                                            const std::vector<std::size_t>& idx,
                                            std::size_t begin, std::size_t end,
                                            ml::IntBatch& out) const {
  out.resize(end - begin, columns_.size());
  for (std::size_t i = begin; i < end; ++i) {
    const auto& p = ds[idx[i]];
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(i - begin, f) = columns_[f].bucket_of(p.features[f]);
    }
  }
}

void FeatureEncoder::encode_float_gather_into(const Dataset& ds,
                                              const std::vector<std::size_t>& idx,
                                              std::size_t begin, std::size_t end,
                                              ml::Matrix& out) const {
  out.resize(end - begin, columns_.size());
  for (std::size_t i = begin; i < end; ++i) {
    const auto& p = ds[idx[i]];
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(i - begin, f) = columns_[f].standardize(p.features[f]);
    }
  }
}

ml::IntBatch FeatureEncoder::encode_int(const std::vector<std::int64_t>& features) const {
  if (features.size() != columns_.size()) throw std::invalid_argument("feature arity mismatch");
  ml::IntBatch out;
  out.resize(1, columns_.size());
  for (std::size_t f = 0; f < columns_.size(); ++f) out(0, f) = columns_[f].bucket_of(features[f]);
  return out;
}

ml::Matrix FeatureEncoder::encode_float(const std::vector<std::int64_t>& features) const {
  if (features.size() != columns_.size()) throw std::invalid_argument("feature arity mismatch");
  ml::Matrix out(1, columns_.size());
  for (std::size_t f = 0; f < columns_.size(); ++f) {
    out(0, f) = columns_[f].standardize(features[f]);
  }
  return out;
}

ml::IntBatch FeatureEncoder::encode_int_batch(
    const std::vector<std::vector<std::int64_t>>& queries) const {
  ml::IntBatch out;
  out.resize(queries.size(), columns_.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].size() != columns_.size())
      throw std::invalid_argument("feature arity mismatch");
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(q, f) = columns_[f].bucket_of(queries[q][f]);
    }
  }
  return out;
}

ml::Matrix FeatureEncoder::encode_float_batch(
    const std::vector<std::vector<std::int64_t>>& queries) const {
  ml::Matrix out(queries.size(), columns_.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].size() != columns_.size())
      throw std::invalid_argument("feature arity mismatch");
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(q, f) = columns_[f].standardize(queries[q][f]);
    }
  }
  return out;
}

void FeatureEncoder::save(BinWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(columns_.size()));
  for (const auto& c : columns_) {
    w.put_u32(c.exact ? 1 : 0);
    w.put_f64(c.mean);
    w.put_f64(c.stddev);
    // An exact column's indices are its keys' ranks, so the keys alone
    // restore the map.
    w.put_u32(static_cast<std::uint32_t>(c.exact ? c.value_to_index.size() : c.boundaries.size()));
    if (c.exact) {
      for (const auto& entry : c.value_to_index) w.put_i64(entry.first);
    } else {
      for (auto b : c.boundaries) w.put_i64(b);
    }
  }
}

FeatureEncoder FeatureEncoder::load(BinReader& r) {
  const std::uint32_t ncols = r.get_u32();
  AIRCH_CHECK(ncols >= 1 && ncols <= kMaxColumns && ncols <= r.remaining() / kMinColumnBytes,
              "corrupt encoder column count");
  FeatureEncoder enc;
  enc.columns_.resize(ncols);
  for (auto& c : enc.columns_) {
    const std::uint32_t kind = r.get_u32();
    AIRCH_CHECK(kind <= 1, "corrupt encoder column kind");
    c.exact = kind == 1;
    c.mean = r.get_f64();
    c.stddev = r.get_f64();
    AIRCH_CHECK(c.mean >= 0.0 && c.mean <= kMaxLogMoment, "corrupt encoder column mean");
    AIRCH_CHECK(c.stddev >= kMinStddev && c.stddev <= kMaxLogMoment,
                "corrupt encoder column deviation");
    const std::uint32_t n = r.get_u32();
    AIRCH_CHECK(n >= 1 && n <= kMaxKeys && n <= r.remaining() / 8, "corrupt encoder key count");
    std::vector<std::int64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = r.get_i64();
      AIRCH_CHECK(i == 0 || keys[i - 1] < keys[i], "encoder keys out of order");
    }
    if (c.exact) {
      for (std::size_t i = 0; i < n; ++i) {
        c.value_to_index.emplace_hint(c.value_to_index.end(), keys[i],
                                      static_cast<std::int32_t>(i));
      }
    } else {
      c.boundaries = std::move(keys);
    }
  }
  return enc;
}

}  // namespace airch
