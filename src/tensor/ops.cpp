#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.h"

namespace apt {

namespace {

// Grain for row-parallel kernels: keep serial below ~16k elements.
std::int64_t RowGrain(std::int64_t cols) {
  return std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, cols));
}

// ---------------------------------------------------------------------------
// Blocked GEMM. NN / TN run a register-tiled microkernel that updates a
// kMr x kNr tile of C over one k-panel: the accumulators live in registers
// for the whole panel, so the inner loop issues one B load and kMr
// multiply-adds per vector with no C traffic. NT (C = A B^T) reduces along
// the contiguous k axis of both operands in kLanes partial sums, blocked
// kNtRows x kNtCols so each A and B load feeds several outputs.
//
// Every C element has ONE accumulation order, whatever tile, lane chunk or
// row-prefix view it is computed in:
//   NN / TN: beta is applied up front; then per kKc-wide k-panel,
//            acc = 0, acc += a(i,p) * b(p,j) for p ascending, c += alpha*acc.
//   NT:      lane l sums a(i,p) * b(j,p) over the full kLanes-blocks (p = l
//            mod kLanes, ascending); acc = 0, acc += lane 0..kLanes-1, then
//            the tail products in p order; c = alpha*acc + beta*c.
// Tiles only decide which elements share registers, and element-wise vector
// ops never re-associate, so results are bit-identical for every tiling
// (tested) without -ffast-math.
// ---------------------------------------------------------------------------

constexpr std::int64_t kMr = 8;   // C tile rows held in registers
constexpr std::int64_t kNr = 16;  // C tile cols: one AVX-512 register
// k-panel length: the kMr x kKc A panel (8 KB) and kKc x kNr B tile (16 KB)
// stay L1-resident while a C tile is updated.
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kLanes = 8;   // NT partial sums per output
constexpr std::int64_t kNtRows = 4;  // NT block: A rows ...
constexpr std::int64_t kNtCols = 4;  // ... x B rows sharing each load

// Fixed-width float vectors. GCC/Clang lower the element-wise ops to the
// widest ISA the target allows (one AVX-512 register, or a pair / quad of
// AVX / SSE registers on narrower clones) — written explicitly because the
// autovectorizer turns the equivalent scalar tile into a slow shuffle-heavy
// SLP form.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // The vectors never cross a real
                                          // ABI boundary: every user is inlined.
typedef float VecNr __attribute__((vector_size(kNr * sizeof(float))));
typedef float VecLanes __attribute__((vector_size(kLanes * sizeof(float))));

// Runtime ISA dispatch for the GEMM drivers: the binary stays baseline
// x86-64, but ifunc resolution picks an AVX2 or AVX-512 clone when the
// host has one. `flatten` pulls the microkernels into each clone so the
// vector code is lowered with the clone's ISA. Disabled under sanitizers:
// ifunc resolvers run during relocation, before the sanitizer runtime is
// initialized, and crash at startup.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define APT_GEMM_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4"), flatten))
#else
#define APT_GEMM_CLONES
#endif

template <typename Vec>
inline Vec LoadVec(const float* p) {
  Vec v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

template <typename Vec>
inline void StoreVec(float* p, const Vec& v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

// C[0:kRows, 0:kNr] += alpha * A-tile * B[0:kc, 0:kNr]. kTransA selects the
// A element layout: a(r, p) = a[r * lda + p] for row-major A (C = A B), or
// a[p * lda + r] when `a` points into a [k, m] matrix (C = A^T B).
template <bool kTransA, int kRows>
inline void GemmMicroKernel(const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float* c, std::int64_t ldc,
                            std::int64_t kc, float alpha) {
  VecNr acc[kRows] = {};
  const std::int64_t step = kTransA ? 1 : lda;
  for (std::int64_t p = 0; p < kc; ++p) {
    const VecNr bv = LoadVec<VecNr>(b + p * ldb);
    const float* ap = kTransA ? a + p * lda : a + p;
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) acc[r] += ap[r * step] * bv;
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    StoreVec(c + r * ldc, LoadVec<VecNr>(c + r * ldc) + alpha * acc[r]);
  }
}

// Runs the microkernel for the mr (1..kMr) rows left in a row block: one
// instantiation per row count, so the ragged rim keeps register tiles too.
template <bool kTransA, int kRows = kMr>
inline void GemmTile(std::int64_t mr, const float* a, std::int64_t lda,
                     const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc, std::int64_t kc, float alpha) {
  if constexpr (kRows > 1) {
    if (mr < kRows) {
      GemmTile<kTransA, kRows - 1>(mr, a, lda, b, ldb, c, ldc, kc, alpha);
      return;
    }
  }
  GemmMicroKernel<kTransA, kRows>(a, lda, b, ldb, c, ldc, kc, alpha);
}

// Applies beta and runs the tiled update for C rows [lo, hi). `k` is the
// contraction length; lda is k for row-major A and m (C rows) for A^T. The
// n % kNr column rim runs the same microkernel on zero-padded copies: B's rim
// columns are packed once per k-panel into `bpad`, each C rim into `ctile`.
template <bool kTransA>
inline void GemmRowBlockImpl(const float* a, std::int64_t lda, const float* b,
                             std::int64_t n, float* c, std::int64_t k,
                             std::int64_t lo, std::int64_t hi, float alpha,
                             float beta) {
  for (std::int64_t i = lo; i < hi; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  const std::int64_t nfull = n - n % kNr;
  const std::int64_t nrim = n - nfull;
  float bpad[kKc * kNr];
  float ctile[kMr * kNr] = {};  // pad columns are computed on, never stored
  for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
    const std::int64_t kc = std::min(kKc, k - p0);
    if (nrim > 0) {
      for (std::int64_t p = 0; p < kc; ++p) {
        float* dst = std::copy_n(b + (p0 + p) * n + nfull, nrim, bpad + p * kNr);
        std::fill(dst, bpad + (p + 1) * kNr, 0.0f);
      }
    }
    for (std::int64_t i = lo; i < hi; i += kMr) {
      const std::int64_t mr = std::min(kMr, hi - i);
      const float* atile = kTransA ? a + p0 * lda + i : a + i * lda + p0;
      for (std::int64_t j = 0; j < nfull; j += kNr) {
        GemmTile<kTransA>(mr, atile, lda, b + p0 * n + j, n, c + i * n + j, n,
                          kc, alpha);
      }
      if (nrim > 0) {
        float* crim = c + i * n + nfull;
        for (std::int64_t r = 0; r < mr; ++r) {
          std::copy_n(crim + r * n, nrim, ctile + r * kNr);
        }
        GemmTile<kTransA>(mr, atile, lda, bpad, kNr, ctile, kNr, kc, alpha);
        for (std::int64_t r = 0; r < mr; ++r) {
          std::copy_n(ctile + r * kNr, nrim, crim + r * n);
        }
      }
    }
  }
}

APT_GEMM_CLONES
void GemmRowBlockNN(const float* a, const float* b, std::int64_t n, float* c,
                    std::int64_t k, std::int64_t lo, std::int64_t hi,
                    float alpha, float beta) {
  GemmRowBlockImpl<false>(a, k, b, n, c, k, lo, hi, alpha, beta);
}

APT_GEMM_CLONES
void GemmRowBlockTN(const float* a, std::int64_t m, const float* b,
                    std::int64_t n, float* c, std::int64_t k, std::int64_t lo,
                    std::int64_t hi, float alpha, float beta) {
  GemmRowBlockImpl<true>(a, m, b, n, c, k, lo, hi, alpha, beta);
}

// C[0:kRows, 0:kCols] of C = A B^T, where `a` points at kRows rows of A,
// `b` at kCols rows of B (both with row stride k) and `c` into C (row
// stride n).
template <int kRows, int kCols>
inline void NtBlock(const float* a, const float* b, float* c, std::int64_t k,
                    std::int64_t n, float alpha, float beta) {
  VecLanes lanes[kRows][kCols] = {};
  std::int64_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    VecLanes bv[kCols];
#pragma GCC unroll 4
    for (int j = 0; j < kCols; ++j) bv[j] = LoadVec<VecLanes>(b + j * k + p);
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const VecLanes av = LoadVec<VecLanes>(a + r * k + p);
#pragma GCC unroll 4
      for (int j = 0; j < kCols; ++j) lanes[r][j] += av * bv[j];
    }
  }
  for (int r = 0; r < kRows; ++r) {
    const float* arow = a + r * k;
    for (int j = 0; j < kCols; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t l = 0; l < kLanes; ++l) acc += lanes[r][j][l];
      for (std::int64_t pt = p; pt < k; ++pt) acc += arow[pt] * brow[pt];
      float& cv = c[r * n + j];
      cv = alpha * acc + (beta == 0.0f ? 0.0f : beta * cv);
    }
  }
}

// One band of kRows C rows: kNtCols-wide column blocks, then single columns.
template <int kRows>
inline void NtRowBand(const float* a, const float* b, float* c, std::int64_t k,
                      std::int64_t n, float alpha, float beta) {
  std::int64_t j = 0;
  for (; j + kNtCols <= n; j += kNtCols) {
    NtBlock<kRows, kNtCols>(a, b + j * k, c + j, k, n, alpha, beta);
  }
  for (; j < n; ++j) NtBlock<kRows, 1>(a, b + j * k, c + j, k, n, alpha, beta);
}

APT_GEMM_CLONES
void GemmRowBlockNT(const float* ap, const float* bp, float* cp,
                    std::int64_t k, std::int64_t n, std::int64_t lo,
                    std::int64_t hi, float alpha, float beta) {
  std::int64_t i = lo;
  for (; i + kNtRows <= hi; i += kNtRows) {
    NtRowBand<kNtRows>(ap + i * k, bp, cp + i * n, k, n, alpha, beta);
  }
  for (; i < hi; ++i) NtRowBand<1>(ap + i * k, bp, cp + i * n, k, n, alpha, beta);
}

#pragma GCC diagnostic pop

}  // namespace

ConstMatrixRef RowPrefix(const Tensor& t, std::int64_t rows) {
  APT_CHECK(rows >= 0 && rows <= t.rows()) << "row prefix " << rows << " of " << t.rows();
  return {t.data(), rows, t.cols()};
}

MatrixRef RowPrefix(Tensor& t, std::int64_t rows) {
  APT_CHECK(rows >= 0 && rows <= t.rows()) << "row prefix " << rows << " of " << t.rows();
  return {t.data(), rows, t.cols()};
}

ConstMatrixRef RowRange(const Tensor& t, std::int64_t lo, std::int64_t rows) {
  APT_CHECK(lo >= 0 && rows >= 0 && lo + rows <= t.rows())
      << "rows [" << lo << ", " << lo + rows << ") of " << t.rows();
  return {t.data() + lo * t.cols(), rows, t.cols()};
}

void Matmul(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c, float alpha, float beta) {
  const std::int64_t m = a.rows, k = a.cols, n = b.cols;
  APT_CHECK_EQ(b.rows, k);
  APT_CHECK_EQ(c.rows, m);
  APT_CHECK_EQ(c.cols, n);
  if (m == 0 || n == 0) return;
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    GemmRowBlockNN(a.data, b.data, n, c.data, k, lo, hi, alpha, beta);
  }, RowGrain(k + n));
}

void MatmulTN(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c, float alpha, float beta) {
  // A is [k, m]; C = A^T B is [m, n].
  const std::int64_t k = a.rows, m = a.cols, n = b.cols;
  APT_CHECK_EQ(b.rows, k);
  APT_CHECK_EQ(c.rows, m);
  APT_CHECK_EQ(c.cols, n);
  if (m == 0 || n == 0) return;
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    GemmRowBlockTN(a.data, m, b.data, n, c.data, k, lo, hi, alpha, beta);
  }, RowGrain(k + n));
}

void MatmulNT(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c, float alpha, float beta) {
  // B is [n, k]; C = A B^T is [m, n].
  const std::int64_t m = a.rows, k = a.cols, n = b.rows;
  APT_CHECK_EQ(b.cols, k);
  APT_CHECK_EQ(c.rows, m);
  APT_CHECK_EQ(c.cols, n);
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    GemmRowBlockNT(a.data, b.data, c.data, k, n, lo, hi, alpha, beta);
  }, RowGrain(k + n));
}

void Axpy(float alpha, const Tensor& x, Tensor& y) {
  APT_CHECK(x.SameShape(y)) << x.ShapeString() << " vs " << y.ShapeString();
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t n = x.numel();
  ParallelFor(0, n, [&](std::int64_t i) { yp[i] += alpha * xp[i]; }, 1 << 15);
}

void Scale(Tensor& x, float alpha) {
  float* xp = x.data();
  const std::int64_t n = x.numel();
  ParallelFor(0, n, [&](std::int64_t i) { xp[i] *= alpha; }, 1 << 15);
}

void Add(const Tensor& a, const Tensor& b, Tensor& out) {
  APT_CHECK(a.SameShape(b));
  APT_CHECK(a.SameShape(out));
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  ParallelFor(0, a.numel(), [&](std::int64_t i) { op[i] = ap[i] + bp[i]; }, 1 << 15);
}

void AddBiasRows(Tensor& x, const Tensor& bias) {
  APT_CHECK_EQ(bias.rows(), 1);
  APT_CHECK_EQ(bias.cols(), x.cols());
  const std::int64_t n = x.cols();
  const float* bp = bias.data();
  ParallelFor(0, x.rows(), [&](std::int64_t i) {
    float* xrow = x.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) xrow[j] += bp[j];
  }, RowGrain(n));
}

void BiasGradRows(const Tensor& grad, Tensor& grad_bias) {
  APT_CHECK_EQ(grad_bias.rows(), 1);
  APT_CHECK_EQ(grad_bias.cols(), grad.cols());
  grad_bias.Zero();
  float* gb = grad_bias.data();
  const std::int64_t n = grad.cols();
  for (std::int64_t i = 0; i < grad.rows(); ++i) {
    const float* grow = grad.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) gb[j] += grow[j];
  }
}

void Relu(const Tensor& x, Tensor& out) {
  APT_CHECK(x.SameShape(out));
  const float* xp = x.data();
  float* op = out.data();
  ParallelFor(0, x.numel(), [&](std::int64_t i) { op[i] = xp[i] > 0.0f ? xp[i] : 0.0f; },
              1 << 15);
}

void ReluBackward(const Tensor& x, const Tensor& grad_y, Tensor& grad_x) {
  APT_CHECK(x.SameShape(grad_y));
  APT_CHECK(x.SameShape(grad_x));
  const float* xp = x.data();
  const float* gy = grad_y.data();
  float* gx = grad_x.data();
  ParallelFor(0, x.numel(), [&](std::int64_t i) { gx[i] = xp[i] > 0.0f ? gy[i] : 0.0f; },
              1 << 15);
}

void LeakyRelu(const Tensor& x, Tensor& out, float slope) {
  APT_CHECK(x.SameShape(out));
  const float* xp = x.data();
  float* op = out.data();
  ParallelFor(0, x.numel(),
              [&](std::int64_t i) { op[i] = xp[i] > 0.0f ? xp[i] : slope * xp[i]; }, 1 << 15);
}

void LeakyReluBackward(const Tensor& x, const Tensor& grad_y, Tensor& grad_x,
                       float slope) {
  APT_CHECK(x.SameShape(grad_y));
  APT_CHECK(x.SameShape(grad_x));
  const float* xp = x.data();
  const float* gy = grad_y.data();
  float* gx = grad_x.data();
  ParallelFor(0, x.numel(),
              [&](std::int64_t i) { gx[i] = xp[i] > 0.0f ? gy[i] : slope * gy[i]; }, 1 << 15);
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  APT_CHECK(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  float m = 0.0f;
  const float* ap = a.data();
  const float* bp = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(ap[i] - bp[i]));
  }
  return m;
}

double SumSquares(const Tensor& x) {
  double s = 0.0;
  const float* xp = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) s += static_cast<double>(xp[i]) * xp[i];
  return s;
}

void GatherRows(const Tensor& src, std::span<const std::int64_t> index, Tensor& out) {
  APT_CHECK_EQ(out.rows(), static_cast<std::int64_t>(index.size()));
  APT_CHECK_EQ(out.cols(), src.cols());
  const std::int64_t n = src.cols();
  ParallelFor(0, out.rows(), [&](std::int64_t i) {
    const std::int64_t r = index[static_cast<std::size_t>(i)];
    APT_CHECK(r >= 0 && r < src.rows()) << "gather index " << r << " of " << src.rows();
    std::copy_n(src.data() + r * n, n, out.data() + i * n);
  }, RowGrain(n));
}

void ScatterAddRows(const Tensor& src, std::span<const std::int64_t> index, Tensor& dst) {
  APT_CHECK_EQ(src.rows(), static_cast<std::int64_t>(index.size()));
  APT_CHECK_EQ(src.cols(), dst.cols());
  const std::int64_t n = src.cols();
  // Serial: indices may repeat, so a parallel version would race.
  for (std::int64_t i = 0; i < src.rows(); ++i) {
    const std::int64_t r = index[static_cast<std::size_t>(i)];
    APT_CHECK(r >= 0 && r < dst.rows()) << "scatter index " << r << " of " << dst.rows();
    const float* srow = src.data() + i * n;
    float* drow = dst.data() + r * n;
    for (std::int64_t j = 0; j < n; ++j) drow[j] += srow[j];
  }
}

void ScatterRows(const Tensor& src, std::span<const std::int64_t> index, Tensor& dst) {
  APT_CHECK_EQ(src.rows(), static_cast<std::int64_t>(index.size()));
  APT_CHECK_EQ(src.cols(), dst.cols());
  const std::int64_t n = src.cols();
  ParallelFor(0, src.rows(), [&](std::int64_t i) {
    const std::int64_t r = index[static_cast<std::size_t>(i)];
    APT_CHECK(r >= 0 && r < dst.rows()) << "scatter index " << r << " of " << dst.rows();
    std::copy_n(src.data() + i * n, n, dst.data() + r * n);
  }, RowGrain(n));
}

float SoftmaxCrossEntropy(const Tensor& logits, std::span<const std::int64_t> labels,
                          Tensor* grad, std::int64_t* count_correct) {
  const std::int64_t m = logits.rows(), n = logits.cols();
  APT_CHECK_EQ(static_cast<std::int64_t>(labels.size()), m);
  if (grad != nullptr) {
    APT_CHECK(grad->SameShape(logits));
  }
  double total_loss = 0.0;
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = logits.data() + i * n;
    const std::int64_t label = labels[static_cast<std::size_t>(i)];
    APT_CHECK(label >= 0 && label < n) << "label " << label << " for " << n << " classes";
    float maxv = row[0];
    std::int64_t argmax = 0;
    for (std::int64_t j = 1; j < n; ++j) {
      if (row[j] > maxv) {
        maxv = row[j];
        argmax = j;
      }
    }
    if (argmax == label) ++correct;
    double denom = 0.0;
    for (std::int64_t j = 0; j < n; ++j) denom += std::exp(static_cast<double>(row[j] - maxv));
    const double log_denom = std::log(denom);
    total_loss += log_denom - static_cast<double>(row[label] - maxv);
    if (grad != nullptr) {
      float* grow = grad->data() + i * n;
      const float inv_m = 1.0f / static_cast<float>(m);
      for (std::int64_t j = 0; j < n; ++j) {
        const double p = std::exp(static_cast<double>(row[j] - maxv)) / denom;
        grow[j] = inv_m * static_cast<float>(p - (j == label ? 1.0 : 0.0));
      }
    }
  }
  if (count_correct != nullptr) *count_correct = correct;
  return m > 0 ? static_cast<float>(total_loss / m) : 0.0f;
}

}  // namespace apt
