// Bit-identity property suite for the matmul (src/ml/matrix.cpp) — the
// column-blocked, panel-packed kernel and the small-batch streaming path —
// against the seed's ikj loop in the test oracle
// (tests/reference/ml_reference.hpp), plus the zero-skip contract pins and
// a concurrent-training stress that makes `ctest -L tsan` exercise the
// column-parallel kernel with real threads.
//
// matmul must match matmul_reference BIT FOR BIT on every shape,
// transpose combination, and alpha/beta pair — including operands with
// dropout/ReLU-style random zeros, which flip the kernel between its
// branchy and branch-free flavours. Every comparison runs at
// AIRCH_THREADS=1 and 2, so both the single-worker pass and the column
// split between workers are pinned.

#include "ml/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ml/network.hpp"
#include "ml/optimizer.hpp"
#include "reference/ml_reference.hpp"

namespace {

using airch::ml::Matrix;
using airch::ml::matmul;
using airch::ml::matmul_reference;
using airch::ml::ThreadsGuard;

void fill_random(Matrix& m, std::mt19937& rng, double zero_fraction) {
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::bernoulli_distribution zero(zero_fraction);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = zero(rng) ? 0.0f : dist(rng);
  }
}

bool bit_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Bit-compares the kernel against the reference on fixed operands
/// and a shared C seed, at AIRCH_THREADS=1 and 2: one worker, and the
/// column split between two workers wherever the shape is big enough.
void expect_bit_identical(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
                          const Matrix& c_seed, float alpha, float beta) {
  Matrix c_ref = c_seed;
  matmul_reference(a, trans_a, b, trans_b, c_ref, alpha, beta);

  for (const char* threads : {"1", "2"}) {
    const ThreadsGuard threads_guard(threads);
    Matrix c_fast = c_seed;
    matmul(a, trans_a, b, trans_b, c_fast, alpha, beta);
    ASSERT_TRUE(bit_equal(c_ref, c_fast))
        << "m=" << c_seed.rows() << " k=" << (trans_a ? a.rows() : a.cols())
        << " n=" << c_seed.cols() << " ta=" << trans_a << " tb=" << trans_b
        << " alpha=" << alpha << " beta=" << beta << " threads=" << threads;
  }
}

/// One randomized case: build op(A) (m x k), op(B) (k x n), a shared C
/// seed, and bit-compare the kernel against the reference.
void check_case(std::mt19937& rng, std::size_t m, std::size_t k, std::size_t n, bool trans_a,
                bool trans_b, float alpha, float beta, double zero_fraction) {
  Matrix a(trans_a ? k : m, trans_a ? m : k);
  Matrix b(trans_b ? n : k, trans_b ? k : n);
  fill_random(a, rng, zero_fraction);
  fill_random(b, rng, 0.0);
  Matrix c_seed(m, n);
  fill_random(c_seed, rng, 0.0);
  SCOPED_TRACE(::testing::Message() << "zero fraction " << zero_fraction);
  expect_bit_identical(a, trans_a, b, trans_b, c_seed, alpha, beta);
}

TEST(MatmulKernel, BitIdenticalOnRandomShapes) {
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<std::size_t> dim(1, 65);
  const float alphas[] = {1.0f, 0.5f, -1.25f, 0.0f};
  const float betas[] = {0.0f, 1.0f, 0.3f};
  const double zero_fractions[] = {0.0, 0.5, 0.95};
  int case_index = 0;
  for (int rep = 0; rep < 12; ++rep) {
    const std::size_t m = dim(rng);
    const std::size_t k = dim(rng);
    const std::size_t n = dim(rng);
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        const float alpha = alphas[static_cast<std::size_t>(case_index) % 4];
        const float beta = betas[static_cast<std::size_t>(case_index) % 3];
        const double zf = zero_fractions[static_cast<std::size_t>(case_index) % 3];
        ++case_index;
        check_case(rng, m, k, n, trans_a, trans_b, alpha, beta, zf);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(MatmulKernel, BitIdenticalOnBlockedShapes) {
  // Shapes with m >= 8 rows take the blocked kernel; row and strip tails
  // included.
  std::mt19937 rng(7);
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {{64, 64, 64}, {65, 33, 97}, {128, 64, 37}, {96, 128, 256}};
  for (const auto& s : shapes) {
    for (double zf : {0.0, 0.5}) {
      check_case(rng, s.m, s.k, s.n, false, false, 1.0f, 0.0f, zf);
      check_case(rng, s.m, s.k, s.n, true, false, 1.0f, 0.0f, zf);
      check_case(rng, s.m, s.k, s.n, false, true, 0.5f, 0.3f, zf);
      if (HasFatalFailure()) return;
    }
  }
}

// ------------------------------------------------- loop structure
// The shapes below are chosen against the kernel's loop nest: m < 8 rows
// against an untransposed B take the streaming path, everything else the
// blocked one; op(B) is cut into
// column blocks of a fixed byte budget and 32-column strips, so n values
// that are multiples of neither leave a partial block and a partial strip;
// and at two threads the columns are split between workers (every case
// runs at AIRCH_THREADS=1 and 2, see expect_bit_identical).

TEST(MatmulKernel, ServedHeadShapesAtEveryBatchSize) {
  // The three served output heads (256 hidden units -> 459 / 1000 / 1944
  // classes) at every batch size around the streaming/blocked boundary and
  // around a full serving batch, on ReLU-like activations.
  std::mt19937 rng(2026);
  const std::size_t batch_sizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65};
  for (const std::size_t n : {459, 1000, 1944}) {
    for (const std::size_t m : batch_sizes) {
      check_case(rng, m, 256, n, false, false, 1.0f, 0.0f, 0.5);
      if (HasFatalFailure()) return;
    }
  }
  // A streaming batch with enough work to split its columns between two
  // workers.
  check_case(rng, 4, 1944, 1024, false, false, 1.0f, 0.0f, 0.5);
}

TEST(MatmulKernel, ColumnTailsOffBlockAndStripBoundaries) {
  // n = 1, 33 and 100 end in a partial 32-column strip. With the 256 KiB
  // panel budget a column block is 192 columns wide at k = 300 and 1024 at
  // k = 64, so n = 300 and 1025 also end in a partial block (k = 256 is
  // covered by the served heads above). alpha/beta vary so the tails of
  // both tile flavours are hit.
  std::mt19937 rng(99);
  for (const std::size_t k : {64, 300}) {
    for (const std::size_t n : {1, 33, 100, 300, 1025}) {
      for (const std::size_t m : {3, 8, 17}) {
        check_case(rng, m, k, n, false, false, 1.0f, 0.0f, 0.5);
        check_case(rng, m, k, n, false, false, -0.5f, 1.0f, 0.5);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(MatmulKernel, TransposedBWithKLargerThanOnePanel) {
  // dX = dY * W^T for the case-3 head: k = 1944 classes, n = 256 hidden
  // units, so op(B) is transposed while packing and a panel holds only a
  // few strips. A transposed B has no rows to stream, so m = 4 takes the
  // blocked path too, on zero-padded rows.
  std::mt19937 rng(1944);
  for (const std::size_t m : {4, 17}) {
    check_case(rng, m, 1944, 256, false, true, 1.0f, 0.0f, 0.0);
    check_case(rng, m, 1944, 256, false, true, 0.5f, 0.3f, 0.5);
    if (HasFatalFailure()) return;
  }
  // Wide enough that m = 4 splits its columns between two workers.
  check_case(rng, 4, 1944, 1024, false, true, 1.0f, 0.0f, 0.5);
  // The dW = X^T * dY shape rides along: op(A) transposed.
  check_case(rng, 64, 40, 1944, true, false, 1.0f, 0.0f, 0.5);
}

TEST(MatmulKernel, InfInOneColumnBlockOnly) {
  // One infinite weight poisons one column of op(B); every other column
  // stays finite. A zero activation row and ~50% zeros elsewhere make any
  // wrongly multiplied-through 0 * inf show up as a NaN; wherever the inf
  // sits, the result must equal the reference bit for bit, including the
  // finite columns computed beside it.
  std::mt19937 rng(31);
  for (const std::size_t m : {4, 9}) {
    for (const std::size_t col : {0, 300, 1943}) {
      for (const bool trans_b : {false, true}) {
        Matrix a(m, 256);
        fill_random(a, rng, 0.5);
        for (std::size_t p = 0; p < a.cols(); ++p) a(1, p) = 0.0f;
        Matrix b(trans_b ? 1944 : 256, trans_b ? 256 : 1944);
        fill_random(b, rng, 0.0);
        const float inf = std::numeric_limits<float>::infinity();
        if (trans_b) {
          b(col, 17) = inf;
        } else {
          b(17, col) = inf;
        }
        const Matrix c_seed(m, 1944);
        expect_bit_identical(a, false, b, trans_b, c_seed, 1.0f, 0.0f);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(MatmulKernel, FormerTinyShortcutShapes) {
  // The smallest shapes — single rows, products of a few thousand flops —
  // run the blocked or streaming kernel too: matmul has no size cut-off
  // to a plain loop.
  std::mt19937 rng(5);
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {{1, 256, 459}, {1, 1, 1}, {2, 3, 5},    {1, 64, 256},
                          {8, 8, 8},     {9, 4, 7}, {16, 16, 63}, {30, 20, 27}};
  for (const auto& s : shapes) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        check_case(rng, s.m, s.k, s.n, trans_a, trans_b, 1.0f, 0.0f, 0.5);
        check_case(rng, s.m, s.k, s.n, trans_a, trans_b, 0.5f, 0.3f, 0.0);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// The zero-skip contract (matrix.hpp): a term whose scaled A operand is
// zero is skipped, never accumulated. These pins are load-bearing for the
// network layers — dropout/ReLU hand the kernel rows full of zeros — and
// for serialization, where -0.0f vs +0.0f would round-trip differently.
TEST(MatmulKernel, ZeroRowInAContributesExactlyPositiveZero) {
  std::mt19937 rng(11);
  Matrix a(48, 40);
  fill_random(a, rng, 0.3);
  for (std::size_t p = 0; p < a.cols(); ++p) a(7, p) = 0.0f;  // the dropped row
  Matrix b(40, 96);
  fill_random(b, rng, 0.0);
  // Negative B values make any accumulated product -0.0f-prone: the row
  // result is exactly +0.0f only if every term was truly skipped.
  Matrix c(48, 96);
  matmul(a, false, b, false, c);
  for (std::size_t j = 0; j < c.cols(); ++j) {
    ASSERT_EQ(c(7, j), 0.0f);
    ASSERT_FALSE(std::signbit(c(7, j))) << "zero row produced -0.0f at column " << j;
  }
}

TEST(MatmulKernel, ZeroRowNeverProducesNanFromInfinity) {
  // 0 * inf would be NaN if the zero terms were multiplied through; the
  // contract says they are skipped, so an all-zero A row stays +0.0f even
  // against an infinite B.
  std::mt19937 rng(13);
  Matrix a(40, 36);
  fill_random(a, rng, 0.5);
  for (std::size_t p = 0; p < a.cols(); ++p) a(3, p) = 0.0f;
  Matrix b(36, 64);
  fill_random(b, rng, 0.0);
  b(17, 5) = std::numeric_limits<float>::infinity();
  b(2, 40) = -std::numeric_limits<float>::infinity();
  Matrix c(40, 64);
  matmul(a, false, b, false, c);
  for (std::size_t j = 0; j < c.cols(); ++j) {
    ASSERT_FALSE(std::isnan(c(3, j))) << "0 * inf leaked into the dropped row at " << j;
    ASSERT_EQ(c(3, j), 0.0f);
    ASSERT_FALSE(std::signbit(c(3, j)));
  }
  // And the whole result still matches the reference bit for bit.
  Matrix c_ref(40, 64);
  matmul_reference(a, false, b, false, c_ref);
  ASSERT_TRUE(bit_equal(c_ref, c));
}

TEST(MatmulKernel, BetaPreservesNegativeZeroInC) {
  // With beta == 1 and a zero A row, C's row must pass through untouched —
  // including a -0.0f, which an `acc += +0.0f` would silently flip.
  std::mt19937 rng(17);
  Matrix a(33, 40);
  fill_random(a, rng, 0.4);
  for (std::size_t p = 0; p < a.cols(); ++p) a(9, p) = 0.0f;
  Matrix b(40, 48);
  fill_random(b, rng, 0.0);
  Matrix c(33, 48);
  for (std::size_t j = 0; j < c.cols(); ++j) c(9, j) = -0.0f;
  Matrix c_ref = c;
  matmul_reference(a, false, b, false, c_ref, 1.0f, 1.0f);
  matmul(a, false, b, false, c, 1.0f, 1.0f);
  ASSERT_TRUE(bit_equal(c_ref, c));
  for (std::size_t j = 0; j < c.cols(); ++j) {
    ASSERT_TRUE(std::signbit(c(9, j))) << "-0.0f flipped to +0.0f at column " << j;
  }
}

// Concurrent-training stress (tsan label): several threads each drive an
// independent FeedForwardNet through training batches while AIRCH_THREADS
// forces the column-parallel matmul to fork its own nested workers. Per-thread nets share no state, so TSan flags
// any accidental sharing inside the kernel layer (packing scratch,
// dispatch statics, worker handoff).
TEST(MatmulKernel, ConcurrentTrainingIsRaceFreeAndDeterministic) {
  ASSERT_EQ(setenv("AIRCH_THREADS", "4", 1), 0);
  constexpr int kThreads = 3;
  constexpr int kSteps = 4;
  std::vector<std::vector<float>> first_weights(kThreads);
  auto run = [&](int tid, std::vector<float>& out) {
    airch::Rng rng(1234);
    airch::ml::FeedForwardNet net(64, {96}, 10, rng, 0.0);
    airch::ml::Adam opt(1e-3);
    std::mt19937 data_rng(99);  // same seed on every thread
    Matrix x(32, 64);
    std::vector<std::int32_t> y(32);
    for (int step = 0; step < kSteps; ++step) {
      fill_random(x, data_rng, 0.5);
      for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] = static_cast<std::int32_t>((i + static_cast<std::size_t>(step)) % 10);
      }
      (void)net.train_batch(x, y, opt);  // training for the side effect; stats unused
    }
    const auto params = net.params();
    for (const auto& p : params) out.insert(out.end(), p.value, p.value + p.size);
    (void)tid;
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  // airch-lint: allow(raw-thread) — stress test intentionally drives the
  // kernel layer from plain threads outside the parallel_for pool.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(run, t, std::ref(first_weights[static_cast<std::size_t>(t)]));
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(unsetenv("AIRCH_THREADS"), 0);
  // Identical seeds + bit-identical kernels => identical weights on every
  // thread, byte for byte.
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(first_weights[0].size(), first_weights[static_cast<std::size_t>(t)].size());
    ASSERT_TRUE(std::memcmp(first_weights[0].data(),
                            first_weights[static_cast<std::size_t>(t)].data(),
                            first_weights[0].size() * sizeof(float)) == 0)
        << "thread " << t << " diverged";
  }
}

}  // namespace
