#include "ml/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/parallel.hpp"

namespace airch::ml {

void Matrix::init_glorot(Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  for (auto& v : data_) v = static_cast<float>(rng.uniform(-limit, limit));
}

void parallel_rows(std::size_t rows, std::size_t work_per_row,
                   const std::function<void(std::size_t, std::size_t)>& fn) {
  if (rows == 0) return;
  // Each worker should shoulder a few million scalar ops before a thread
  // spawn pays for itself; below that the serial loop wins outright.
  constexpr std::size_t kMinWorkPerWorker = std::size_t{2} << 20;
  const std::size_t total = rows * std::max<std::size_t>(work_per_row, 1);
  const auto workers = static_cast<unsigned>(std::min<std::size_t>(
      hardware_threads(), std::max<std::size_t>(total / kMinWorkPerWorker, 1)));
  if (workers > 1) {
    parallel_for(rows, workers, fn);
    return;
  }
  fn(0, rows);
}

namespace {

// ---------------------------------------------------------------- matmul
// Every call reads op(B) — the weight matrix, on every inference call —
// from memory once. Two loop nests keep that property:
//
//  * Blocked (m >= kMR). op(B) is cut into column blocks whose k x NC
//    panel fits in L2 (kPanelBytes). Each block is packed once into
//    kNR-wide strips (k x kNR contiguous floats, the last strip padded
//    with zeros), and every kMR-row block of A runs against the whole
//    panel before the next block is packed. alpha * op(A) is packed once
//    per call into kMR-row blocks, p-major inside a block, the last block
//    padded with zero rows. An MR x NR tile of C lives in acc[][] across
//    the whole k loop, so each C element is loaded and stored once; edge
//    tiles run through a full-size scratch tile, so one kernel serves
//    every shape.
//  * Streaming (m < kMR with B untransposed: single queries and small
//    serving batches). Too few rows to fill a register tile, so the loop
//    walks B, in place, row by row and adds each row, scaled, into all m
//    rows of C. It keeps the reference's zero-skip literally, so it needs
//    no finiteness test: a zero activation skips a whole row update, and a
//    row of B whose m activations are all zero is never read. (A
//    transposed B has no contiguous rows to stream; its rare small batches,
//    a training epoch's last few samples, take the blocked path.)
//
// Bit-identity with the seed's ikj reference loop (kept as the tests'
// oracle) holds because every C element still accumulates its terms in
// ascending-p order on one thread, with the identical
// `scaled A operand == 0 -> skip` test on the identical float value.
// Blocking, packing and the column split only change where the operands
// are read from and which thread owns a column.
//
// The blocked tile comes in two flavours, chosen per panel:
//
//  * SKIP: keeps the reference's `v != 0.0f` branch. Always bit-safe, but
//    ReLU/dropout-zeroed operands (~50% zeros, randomly placed) make that
//    branch unpredictable, and the mispredict costs more than the NR
//    multiply-adds it skips.
//  * NOSKIP: no branch — zero terms are multiplied through. This is
//    bit-identical to skipping *provided* beta == 0 and the panel is free
//    of inf/NaN: accumulators then start at +0.0f and addition of finite
//    values can only produce -0.0f from (-0.0f)+(-0.0f), which is
//    unreachable from a +0.0f start, so the extra `acc += 0.0f*b` terms
//    (`== ±0.0f`) never change a single bit, and with no infinities the
//    0*inf -> NaN hazard the skip exists to prevent cannot occur. Every
//    nonzero term is the same multiply and add as the reference's.
//    The panel pack tests every element's exponent field (all ones means
//    inf or NaN) in the same pass that copies it, and a poisoned panel
//    falls back to SKIP, so the documented zero-skip contract always
//    holds.
//
// (A pack-time nonzero-compaction variant — per-row (p, value) streams —
// was prototyped for the sparse operands and measured several times
// SLOWER than either tile on the target hardware: the indexed B-row loads
// defeat hardware prefetch and the nonzero stream is re-read once per
// NR-column strip.)
constexpr std::size_t kMR = 8;
constexpr std::size_t kNR = 32;
/// Byte budget of one packed k x NC panel of op(B): inside the L2 of any
/// recent x86-64 core, with room left for the A block and the C tiles.
constexpr std::size_t kPanelBytes = std::size_t{256} << 10;
/// A worker should shoulder a few MFLOP before its spawn pays for itself.
constexpr std::size_t kMinFlopsPerWorker = std::size_t{4} << 20;

/// One call's operands, shared read-only by every worker.
struct Gemm {
  const float* a;
  const float* b;
  float* c;
  std::size_t lda, ldb;  ///< row strides of A and B as stored
  std::size_t m, k, n;   ///< op(A) is m x k, op(B) is k x n
  bool trans_a, trans_b;
  float alpha;
  bool beta_zero;
  const float* apack;  ///< blocked path: packed alpha * op(A)
};

/// A float's exponent field; all ones (== kExponentMask) means inf or NaN.
/// The pack loops fold its running max into the copy — an integer max
/// reduction, which vectorizes where a bool `|=` does not.
constexpr std::uint32_t kExponentMask = 0x7f800000U;
inline std::uint32_t exponent_bits(float x) {
  return std::bit_cast<std::uint32_t>(x) & kExponentMask;
}

// The loop nests are stamped out once per SIMD level below. Plain loops
// only: the per-target function attributes let the auto-vectorizer use
// wider registers without intrinsics. fp-contract is forced off because a
// fused multiply-add rounds once where the reference's separate multiply
// and add round twice — FMA contraction would silently break bit-identity
// (tests/test_matmul_kernel.cpp catches this on random data). TAKE is
// `v != 0.0f` for the SKIP flavour and `true` for NOSKIP.
#define AIRCH_MATMUL_TILES(TAKE)                                                      \
  for (std::size_t ib = 0; ib * kMR < g.m; ++ib) {                                     \
    const float* ap = g.apack + ib * kMR * k;                                          \
    const std::size_t rows = std::min(kMR, g.m - ib * kMR);                            \
    for (std::size_t s = 0; s < strips; ++s) {                                         \
      const float* bp = panel + s * k * kNR;                                           \
      const std::size_t cols = std::min(kNR, w - s * kNR);                             \
      float* const c_tile = g.c + ib * kMR * g.n + jb + s * kNR;                       \
      const bool partial = rows < kMR || cols < kNR;                                   \
      float edge[kMR * kNR];                                                           \
      float* cp = c_tile;                                                              \
      std::size_t ldc = g.n;                                                           \
      if (partial) {                                                                   \
        std::fill(edge, edge + kMR * kNR, 0.0f);                                       \
        for (std::size_t t = 0; t < rows; ++t)                                         \
          std::copy(c_tile + t * g.n, c_tile + t * g.n + cols, edge + t * kNR);        \
        cp = edge;                                                                     \
        ldc = kNR;                                                                     \
      }                                                                                \
      float acc[kMR][kNR];                                                             \
      for (std::size_t t = 0; t < kMR; ++t)                                            \
        for (std::size_t j = 0; j < kNR; ++j) acc[t][j] = cp[t * ldc + j];             \
      for (std::size_t p = 0; p < k; ++p) {                                            \
        const float* br = bp + p * kNR;                                                \
        for (std::size_t t = 0; t < kMR; ++t) {                                        \
          const float v = ap[p * kMR + t];                                             \
          if (TAKE)                                                                    \
            for (std::size_t j = 0; j < kNR; ++j) acc[t][j] += v * br[j];              \
        }                                                                              \
      }                                                                                \
      for (std::size_t t = 0; t < kMR; ++t)                                            \
        for (std::size_t j = 0; j < kNR; ++j) cp[t * ldc + j] = acc[t][j];             \
      if (partial) {                                                                   \
        for (std::size_t t = 0; t < rows; ++t)                                         \
          std::copy(edge + t * kNR, edge + t * kNR + cols, c_tile + t * g.n);          \
      }                                                                                \
    }                                                                                  \
  }

// Blocked: C[:, j0, j1) for every row. Per column block of up to nc
// columns: pack the panel into `panel` (transposing a stored-transposed B
// on the way) while testing exponents, then run every row block against it.
#define AIRCH_MATMUL_BLOCKED_BODY                                                      \
  const std::size_t k = g.k;                                                           \
  for (std::size_t jb = j0; jb < j1; jb += nc) {                                       \
    const std::size_t w = std::min(nc, j1 - jb);                                       \
    const std::size_t strips = (w + kNR - 1) / kNR;                                    \
    std::uint32_t top_exponent = 0;                                                    \
    for (std::size_t s = 0; s < strips; ++s) {                                         \
      const std::size_t js = jb + s * kNR;                                             \
      const std::size_t cols = std::min(kNR, w - s * kNR);                             \
      for (std::size_t p = 0; p < k; ++p) {                                            \
        const float* src = g.b + (g.trans_b ? js * g.ldb + p : p * g.ldb + js);        \
        const std::size_t stride = g.trans_b ? g.ldb : 1;                              \
        float* d = panel + s * k * kNR + p * kNR;                                      \
        for (std::size_t j = 0; j < cols; ++j) {                                       \
          d[j] = src[j * stride];                                                      \
          top_exponent = std::max(top_exponent, exponent_bits(d[j]));                  \
        }                                                                              \
        std::fill(d + cols, d + kNR, 0.0f);                                            \
      }                                                                                \
    }                                                                                  \
    if (g.beta_zero && top_exponent != kExponentMask) {                                \
      AIRCH_MATMUL_TILES(true)                                                         \
    } else {                                                                           \
      AIRCH_MATMUL_TILES(v != 0.0f)                                                    \
    }                                                                                  \
  }

// Streaming: C[:, j0, j1) for m < kMR rows of an untransposed B, read in
// place.
#define AIRCH_MATMUL_STREAM_BODY                                                       \
  for (std::size_t p = 0; p < g.k; ++p) {                                              \
    const float* br = g.b + p * g.ldb;                                                 \
    for (std::size_t i = 0; i < g.m; ++i) {                                            \
      const float v = g.alpha * (g.trans_a ? g.a[p * g.lda + i] : g.a[i * g.lda + p]); \
      if (v == 0.0f) continue;                                                         \
      float* cr = g.c + i * g.n;                                                       \
      for (std::size_t j = j0; j < j1; ++j) cr[j] += v * br[j];                        \
    }                                                                                  \
  }

#define AIRCH_MATMUL_KERNELS(isa, attrs)                                               \
  attrs void blocked_##isa(const Gemm& g, std::size_t j0, std::size_t j1,              \
                           std::size_t nc, float* panel) {                             \
    AIRCH_MATMUL_BLOCKED_BODY                                                          \
  }                                                                                    \
  attrs void stream_##isa(const Gemm& g, std::size_t j0, std::size_t j1, std::size_t,  \
                          float*) {                                                    \
    AIRCH_MATMUL_STREAM_BODY                                                           \
  }

/// Computes C[:, j0, j1) of one call; nc is the column-block width and
/// `panel` this worker's k x nc scratch (the streaming kernel needs neither).
using KernelFn = void (*)(const Gemm&, std::size_t, std::size_t, std::size_t, float*);
struct Kernels {
  KernelFn blocked;
  KernelFn stream;
};

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
AIRCH_MATMUL_KERNELS(avx512, __attribute__((target("avx512f,prefer-vector-width=512"),
                                            optimize("fp-contract=off"))))
AIRCH_MATMUL_KERNELS(avx2, __attribute__((target("avx2"), optimize("fp-contract=off"))))
AIRCH_MATMUL_KERNELS(base, __attribute__((optimize("fp-contract=off"))))

Kernels select_kernels() {
  if (__builtin_cpu_supports("avx512f")) return {blocked_avx512, stream_avx512};
  if (__builtin_cpu_supports("avx2")) return {blocked_avx2, stream_avx2};
  return {blocked_base, stream_base};
}
#else
// Non-GCC / non-x86 builds: portable instantiations. Baseline targets
// have no FMA instructions, so no explicit contraction suppression is
// needed for bit-identity.
AIRCH_MATMUL_KERNELS(base, )

Kernels select_kernels() { return {blocked_base, stream_base}; }
#endif

#undef AIRCH_MATMUL_KERNELS
#undef AIRCH_MATMUL_STREAM_BODY
#undef AIRCH_MATMUL_BLOCKED_BODY
#undef AIRCH_MATMUL_TILES

std::size_t ceil_div(std::size_t x, std::size_t y) { return (x + y - 1) / y; }

/// Scale-or-clear prologue: C = beta * C.
void apply_beta(Matrix& c, float beta) {
  if (beta == 0.0f) {
    c.fill(0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] *= beta;
  }
}

/// Packs alpha * op(A) for the blocked path: kMR-row blocks, p-major
/// inside a block (element (i, p) at [(i/kMR*k + p)*kMR + i%kMR]), so the
/// tile reads its kMR values of one p contiguously; rows past m are zero.
/// Folding alpha here reproduces the reference's `a_val = alpha * a(...)`
/// product exactly (same two operands, same single rounding), so the
/// kernel's zero test sees the identical value.
void pack_a(const Matrix& a, bool trans_a, std::size_t m, std::size_t k, float alpha,
            float* dst) {
  for (std::size_t ib = 0; ib * kMR < m; ++ib) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t t = 0; t < kMR; ++t) {
        const std::size_t i = ib * kMR + t;
        dst[(ib * k + p) * kMR + t] = i < m ? alpha * (trans_a ? a(p, i) : a(i, p)) : 0.0f;
      }
    }
  }
}

}  // namespace

void matmul(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, Matrix& c,
            float alpha, float beta) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  AIRCH_DCHECK((trans_b ? b.cols() : b.rows()) == k, "matmul inner dimensions must agree");
  AIRCH_DCHECK((trans_a ? a.cols() : a.rows()) == m && (trans_b ? b.rows() : b.cols()) == n,
               "matmul output must be pre-sized to m x n");
  apply_beta(c, beta);
  if (m == 0 || n == 0 || k == 0) return;

  // Scratch is grow-only and owned by the calling thread: steady-state
  // training and serving re-run identical shapes, so nothing is allocated
  // after the first call. Workers are fresh threads on every call, so they
  // get slices of this thread's panel buffer rather than thread_locals of
  // their own (which would mean a new mapping and page faults per call).
  static thread_local std::vector<float> tl_apack;
  static thread_local std::vector<float> tl_panels;

  const bool stream = m < kMR && !trans_b;
  Gemm g{a.data(), b.data(), c.data(), a.cols(), b.cols(), m, k, n,
         trans_a, trans_b, alpha, beta == 0.0f, nullptr};
  if (!stream) {
    const std::size_t apack_floats = ceil_div(m, kMR) * kMR * k;
    if (tl_apack.size() < apack_floats) tl_apack.resize(apack_floats);
    pack_a(a, trans_a, m, k, alpha, tl_apack.data());
    g.apack = tl_apack.data();
  }

  // Split columns, not rows: each worker owns a contiguous run of column
  // blocks for every row, so op(B) is still read once in total and each
  // C element still has exactly one owner. Workers are capped so each
  // shoulders a few MFLOP, and blocks are narrowed when needed so every
  // worker gets at least one.
  std::size_t workers = std::min<std::size_t>(
      hardware_threads(), std::max<std::size_t>(2 * m * k * n / kMinFlopsPerWorker, 1));
  const std::size_t panel_cols = std::max(kNR, kPanelBytes / (k * sizeof(float)) / kNR * kNR);
  const std::size_t nc = std::min(panel_cols, ceil_div(ceil_div(n, workers), kNR) * kNR);
  const std::size_t blocks = ceil_div(n, nc);
  workers = std::min(workers, blocks);
  const std::size_t panel_floats = stream ? 0 : k * nc;
  if (tl_panels.size() < workers * panel_floats) tl_panels.resize(workers * panel_floats);
  float* const panels = tl_panels.data();

  static const Kernels kernels = select_kernels();
  const KernelFn kernel = stream ? kernels.stream : kernels.blocked;
  if (workers == 1) {
    kernel(g, 0, n, nc, panels);
    return;
  }
  parallel_for(workers, static_cast<unsigned>(workers), [&](std::size_t w, std::size_t) {
    const std::size_t j0 = std::min(n, w * blocks / workers * nc);
    const std::size_t j1 = std::min(n, (w + 1) * blocks / workers * nc);
    kernel(g, j0, j1, nc, panels + w * panel_floats);
  });
}

void add_row_broadcast(Matrix& y, const std::vector<float>& row) {
  AIRCH_ASSERT(row.size() == y.cols());
  for (std::size_t i = 0; i < y.rows(); ++i) {
    float* yr = y.row(i);
    for (std::size_t j = 0; j < y.cols(); ++j) yr[j] += row[j];
  }
}

void column_sums(const Matrix& m, std::vector<float>& out) {
  out.assign(m.cols(), 0.0f);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* r = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] += r[j];
  }
}

}  // namespace airch::ml
