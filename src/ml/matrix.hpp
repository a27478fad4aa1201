#pragma once
// Dense row-major float32 matrix — the numeric workhorse of the NN stack —
// plus the training/inference kernel layer (docs/performance.md): a matmul
// that reads op(B) from memory once per call — column-blocked panels that
// fit in L2 under a register-tiled kernel, or, for batches smaller than one
// tile, a streaming row loop — splits columns across workers, and
// dispatches to the widest SIMD level the CPU offers, while staying
// bit-identical to the seed's ikj loop, which the tests keep as their
// reference (tests/reference/ml_reference.hpp): every C element keeps its
// exact p-ascending float accumulation order, and the zero-skip semantics
// for dropout/ReLU-zeroed activations are preserved.

#include <cstddef>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace airch::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float value = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) {
    AIRCH_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    AIRCH_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

  /// Glorot-uniform initialization for weight matrices.
  void init_glorot(Rng& rng);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = alpha * op(A) * op(B) + beta * C, where op is optional transpose.
/// Shapes are checked with assert; callers size C beforehand. Runs the
/// blocked kernel for m >= 8 rows and the streaming loop below that.
/// Semantics contract: a term whose scaled A operand `alpha * op(A)(i,p)`
/// equals zero is SKIPPED, not accumulated — a dropout- or ReLU-zeroed
/// activation row contributes exactly +0.0f to C, never -0.0f and never a
/// NaN from 0 * inf. Both this contract and bit-identity with the reference
/// loop are pinned in tests/test_matmul_kernel.cpp.
void matmul(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, Matrix& c,
            float alpha = 1.0f, float beta = 0.0f);

/// Deterministic helper for the per-batch element loops (embedding,
/// activation, loss): invokes fn(begin, end) over disjoint static row
/// chunks covering [0, rows). Splits across workers only when
/// rows * work_per_row (an approximate scalar-op count) is large enough to
/// amortize thread spawns; otherwise runs inline.
/// Row-partitioning keeps every per-row computation on a single thread in
/// its original order, so results are bit-identical to the serial loop.
void parallel_rows(std::size_t rows, std::size_t work_per_row,
                   const std::function<void(std::size_t, std::size_t)>& fn);

/// y += row_vector broadcast over rows of y (bias add).
void add_row_broadcast(Matrix& y, const std::vector<float>& row);

/// out[j] = sum over rows of m(:, j) (bias gradient reduction).
void column_sums(const Matrix& m, std::vector<float>& out);

}  // namespace airch::ml
