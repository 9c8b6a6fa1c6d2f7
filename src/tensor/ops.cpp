#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.h"
#include "tensor/kernel_variants.h"

namespace apt {

namespace {

// Grain for row-parallel kernels: keep serial below ~16k elements.
std::int64_t RowGrain(std::int64_t cols) {
  return std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, cols));
}

// ---------------------------------------------------------------------------
// Blocked GEMM, one variant per ISA (kernel_variants.h): baseline x86-64,
// AVX2 and AVX-512. HostIsa() picks one per process with
// __builtin_cpu_supports; each variant is a set of wrappers with their own
// `target` attribute that `flatten` the templates below into code for that
// ISA.
//
// NN / TN run a register-tiled microkernel that updates a kMr x kNr tile of
// C over one k-panel: the accumulators live in registers for the whole
// panel, so the inner loop issues kNv B loads and kMr x kNv multiply-adds per
// k step with no C traffic. The tile is sized per ISA so its accumulators use
// most of the register file without spilling (Tile below). TN may first copy
// each k-panel of A into tile-major scratch (PackPanelTN), so the microkernel
// reads A contiguously instead of kMr floats per A row. NT (C = A B^T)
// reduces along the contiguous k axis of both operands in kLanes partial
// sums, blocked kNtRows x kNtCols so each A and B load feeds several outputs.
//
// Every C element has ONE accumulation order, whatever tile, lane chunk,
// packing or row-prefix view it is computed in:
//   NN / TN: beta is applied up front; then per kKc-wide k-panel,
//            acc = 0, acc += a(i,p) * b(p,j) for p ascending, c += alpha*acc.
//   NT:      lane l sums a(i,p) * b(j,p) over the full kLanes-blocks (p = l
//            mod kLanes, ascending); acc = 0, acc += lane 0..kLanes-1, then
//            the tail products in p order; c = alpha*acc + beta*c.
// Tiles only decide which elements share registers, and element-wise vector
// ops never re-associate, so results are bit-identical for every tiling
// (tested) without -ffast-math. This file builds with -ffp-contract=fast
// (GCC's default for C++): where the variant's ISA has FMA (AVX-512, or any
// variant when the build targets FMA) each `x += a * b` is one fused
// multiply-add, the same in every tile of that variant
// (GemmKernels::fused).
// ---------------------------------------------------------------------------

// k-panel length: an AVX-512 tile's kMr x kKc A panel (12 KB) and kKc x kNr
// B panel (32 KB) stay L1-resident while a C tile is updated.
constexpr std::int64_t kKc = 256;
// TN packing block: C rows whose A panel is packed at once (96 KB of stack
// scratch per lane). A multiple of every tile height.
constexpr std::int64_t kMc = 96;
constexpr std::int64_t kLanes = 8;   // NT partial sums per output
constexpr std::int64_t kNtRows = 4;  // NT block: A rows ...
constexpr std::int64_t kNtCols = 4;  // ... x B rows sharing each load

// The tiles use explicit vectors (kernel_variants.h) because the
// autovectorizer turns the equivalent scalar tile into a slow shuffle-heavy
// SLP form.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // The vectors never cross a real
                                          // ABI boundary: every user is inlined.
using kernel_detail::LoadVec;
using kernel_detail::StoreVec;
using kernel_detail::Vec16;
using kernel_detail::Vec4;
using kernel_detail::Vec8;
typedef Vec8 VecLanes;
static_assert(sizeof(VecLanes) == kLanes * sizeof(float));

// An NN / TN register tile: kMr rows x kNv registers of V. Columns of C run
// in full kNr-wide tiles, then one kW-wide tile, then a zero-padded kW-wide
// rim.
template <typename V, int kRows, int kRegs>
struct Tile {
  using Vec = V;
  static constexpr int kW = sizeof(V) / sizeof(float);  // floats per register
  static constexpr int kMr = kRows;
  static constexpr int kNv = kRegs;
  static constexpr int kNr = kRegs * kW;
  static_assert(kRegs == 2, "the narrow tile below is one register wide");
  static_assert(kMc % kRows == 0, "a packing block holds whole tiles");
};
// 8 of 16 xmm accumulate: 4 x 8 leaves room for B, the broadcast A value and
// the product (SSE has no FMA and two-operand multiplies).
using TileBaseline = Tile<Vec4, 4, 2>;
// 12 of 16 ymm: 6 x 16 (an 8 x 16 tile would need all 16 registers for
// accumulators and spill).
using TileAvx2 = Tile<Vec8, 6, 2>;
// 24 of 32 zmm: 12 x 32, so each broadcast of A feeds two registers.
using TileAvx512 = Tile<Vec16, 12, 2>;

// C[0:kRows, 0:kRegs*W] += alpha * A-tile * B[0:kc, 0:kRegs*W]. kTransA
// selects the A element layout: a(r, p) = a[r * lda + p] for row-major A
// (C = A B), or a[p * lda + r] when `a` points into a [k, m] matrix or a
// packed panel (C = A^T B).
template <typename V, int kRegs, bool kTransA, int kRows>
inline void GemmMicroKernel(const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float* c, std::int64_t ldc,
                            std::int64_t kc, float alpha) {
  constexpr int kW = sizeof(V) / sizeof(float);
  V acc[kRows][kRegs] = {};
  const std::int64_t step = kTransA ? 1 : lda;
  for (std::int64_t p = 0; p < kc; ++p) {
    V bv[kRegs];
#pragma GCC unroll 2
    for (int v = 0; v < kRegs; ++v) bv[v] = LoadVec<V>(b + p * ldb + v * kW);
    const float* ap = kTransA ? a + p * lda : a + p;
#pragma GCC unroll 12
    for (int r = 0; r < kRows; ++r) {
      const float ar = ap[r * step];
#pragma GCC unroll 2
      for (int v = 0; v < kRegs; ++v) acc[r][v] += ar * bv[v];
    }
  }
#pragma GCC unroll 12
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kRegs; ++v) {
      float* cp = c + r * ldc + v * kW;
      StoreVec(cp, LoadVec<V>(cp) + alpha * acc[r][v]);
    }
  }
}

// Runs the microkernel for the mr (1..kRows) rows left in a row block: one
// instantiation per row count, so the ragged rim keeps register tiles too.
template <typename V, int kRegs, bool kTransA, int kRows>
inline void GemmTile(std::int64_t mr, const float* a, std::int64_t lda,
                     const float* b, std::int64_t ldb, float* c,
                     std::int64_t ldc, std::int64_t kc, float alpha) {
  if constexpr (kRows > 1) {
    if (mr < kRows) {
      GemmTile<V, kRegs, kTransA, kRows - 1>(mr, a, lda, b, ldb, c, ldc, kc,
                                             alpha);
      return;
    }
  }
  GemmMicroKernel<V, kRegs, kTransA, kRows>(a, lda, b, ldb, c, ldc, kc, alpha);
}

// Copies A[0:kc, 0:rows) of a [k, m] A (row stride lda) into tile-major `dst`:
// the kMr columns of tile t go to dst + t*kMr*kc as kc rows of kMr floats,
// which the TN microkernel reads with lda = kMr. A's rows are read in order.
template <int kMr>
inline void PackPanelTN(const float* a, std::int64_t lda, std::int64_t rows,
                        std::int64_t kc, float* dst) {
  const std::int64_t full = rows - rows % kMr;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* src = a + p * lda;
    float* out = dst + p * kMr;
    for (std::int64_t r = 0; r < full; r += kMr) {
      std::copy_n(src + r, kMr, out + r * kc);
    }
    if (full < rows) std::copy_n(src + full, rows - full, out + full * kc);
  }
}

// Applies beta and runs the tiled update for C rows [lo, hi). `k` is the
// contraction length; lda is k for row-major A and m (C rows) for A^T. The
// n % kW column rim runs the same microkernel on zero-padded copies: B's rim
// columns are packed once per k-panel into `bpad`, each C rim into `ctile`.
// `pack` (TN only) reads A through PackPanelTN scratch, kMc rows at a time.
template <typename T, bool kTransA>
inline void GemmRowBlockImpl(const float* a, std::int64_t lda, const float* b,
                             std::int64_t n, float* c, std::int64_t k,
                             std::int64_t lo, std::int64_t hi, float alpha,
                             float beta, bool pack) {
  using V = typename T::Vec;
  constexpr std::int64_t kMr = T::kMr, kNr = T::kNr, kW = T::kW;
  for (std::int64_t i = lo; i < hi; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  const std::int64_t nfull = n - n % kNr;  // full-width tiles
  const std::int64_t nvec = n - n % kW;    // + one kW-wide tile
  const std::int64_t nrim = n - nvec;      // + the padded rim
  float bpad[kKc * kW];
  float ctile[kMr * kW] = {};  // pad columns are computed on, never stored
  float apack[kTransA ? kMc * kKc : 1];
  const bool packed = kTransA && pack;
  for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
    const std::int64_t kc = std::min(kKc, k - p0);
    if (nrim > 0) {
      for (std::int64_t p = 0; p < kc; ++p) {
        float* dst = std::copy_n(b + (p0 + p) * n + nvec, nrim, bpad + p * kW);
        std::fill(dst, bpad + (p + 1) * kW, 0.0f);
      }
    }
    const float* bpanel = b + p0 * n;
    for (std::int64_t i0 = lo; i0 < hi; i0 += kMc) {
      const std::int64_t i1 = std::min(hi, i0 + kMc);
      if (packed) PackPanelTN<kMr>(a + p0 * lda + i0, lda, i1 - i0, kc, apack);
      for (std::int64_t i = i0; i < i1; i += kMr) {
        const std::int64_t mr = std::min(kMr, i1 - i);
        const float* atile = packed    ? apack + (i - i0) * kc
                             : kTransA ? a + p0 * lda + i
                                       : a + i * lda + p0;
        const std::int64_t ald = packed ? kMr : lda;
        float* ci = c + i * n;
        for (std::int64_t j = 0; j < nfull; j += kNr) {
          GemmTile<V, T::kNv, kTransA, T::kMr>(mr, atile, ald, bpanel + j, n,
                                               ci + j, n, kc, alpha);
        }
        if (nvec > nfull) {
          GemmTile<V, 1, kTransA, T::kMr>(mr, atile, ald, bpanel + nfull, n,
                                          ci + nfull, n, kc, alpha);
        }
        if (nrim > 0) {
          float* crim = ci + nvec;
          for (std::int64_t r = 0; r < mr; ++r) {
            std::copy_n(crim + r * n, nrim, ctile + r * kW);
          }
          GemmTile<V, 1, kTransA, T::kMr>(mr, atile, ald, bpad, kW, ctile, kW,
                                          kc, alpha);
          for (std::int64_t r = 0; r < mr; ++r) {
            std::copy_n(ctile + r * kW, nrim, crim + r * n);
          }
        }
      }
    }
  }
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

inline void GemmRowBlockNT(const float* ap, const float* bp, float* cp,
                           std::int64_t k, std::int64_t n, std::int64_t lo,
                           std::int64_t hi, float alpha, float beta) {
  std::int64_t i = lo;
  for (; i + kNtRows <= hi; i += kNtRows) {
    NtRowBand<kNtRows>(ap + i * k, bp, cp + i * n, k, n, alpha, beta);
  }
  for (; i < hi; ++i) NtRowBand<1>(ap + i * k, bp, cp + i * n, k, n, alpha, beta);
}

#pragma GCC diagnostic pop

// The row-block entry points of one variant (kernel_detail::GemmKernels),
// compiled for the ISA in `attrs`.
#define APT_GEMM_VARIANT(Suffix, attrs, TileT, kFused)                         \
  attrs void GemmNN##Suffix(const float* a, const float* b, std::int64_t n,   \
                            float* c, std::int64_t k, std::int64_t lo,         \
                            std::int64_t hi, float alpha, float beta) {        \
    GemmRowBlockImpl<TileT, false>(a, k, b, n, c, k, lo, hi, alpha, beta,      \
                                   false);                                     \
  }                                                                            \
  attrs void GemmTN##Suffix(const float* a, std::int64_t m, const float* b,   \
                            std::int64_t n, float* c, std::int64_t k,          \
                            std::int64_t lo, std::int64_t hi, float alpha,     \
                            float beta, bool pack) {                           \
    GemmRowBlockImpl<TileT, true>(a, m, b, n, c, k, lo, hi, alpha, beta,       \
                                  pack);                                       \
  }                                                                            \
  attrs void GemmNT##Suffix(const float* a, const float* b, float* c,         \
                            std::int64_t k, std::int64_t n, std::int64_t lo,   \
                            std::int64_t hi, float alpha, float beta) {        \
    GemmRowBlockNT(a, b, c, k, n, lo, hi, alpha, beta);                        \
  }                                                                            \
  constexpr kernel_detail::GemmKernels kGemm##Suffix {                         \
    &GemmNN##Suffix, &GemmTN##Suffix, &GemmNT##Suffix, kFused                  \
  }

#ifdef __FMA__
constexpr bool kBuildHasFma = true;  // every variant can fuse
#else
constexpr bool kBuildHasFma = false;
#endif

APT_GEMM_VARIANT(Baseline, __attribute__((flatten)), TileBaseline, kBuildHasFma);
#if APT_X86_VARIANTS
APT_GEMM_VARIANT(Avx2, __attribute__((target("avx2"), flatten)), TileAvx2,
                 kBuildHasFma);
APT_GEMM_VARIANT(Avx512, __attribute__((target("arch=x86-64-v4"), flatten)),
                 TileAvx512, true);
#endif
#undef APT_GEMM_VARIANT

// Whether MatmulTN reads A ([k, m]) through packed panels. Measured on
// AVX-512, single lane, cold operands: reading A in place runs at 90-110
// GFLOP/s while A's row stride m stays below ~384 floats, and drops to ~40
// GFLOP/s for m >= 384 once a panel is deeper than 128 rows (n = 32); the
// packed copy holds 60-65 there. Elsewhere packing costs 5-30%.
bool PackTN(std::int64_t m, std::int64_t k) { return m >= 384 && k > kKc / 2; }

const kernel_detail::GemmKernels& HostGemm() {
  static const kernel_detail::GemmKernels& kernels =
      kernel_detail::GemmKernelsFor(kernel_detail::HostIsa());
  return kernels;
}

}  // namespace

namespace kernel_detail {

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return true;
#if APT_X86_VARIANTS
    case Isa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
    case Isa::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("x86-64-v4");
#endif
    default:
      return false;
  }
}

Isa HostIsa() {
  static const Isa isa = IsaSupported(Isa::kAvx512) ? Isa::kAvx512
                         : IsaSupported(Isa::kAvx2) ? Isa::kAvx2
                                                    : Isa::kBaseline;
  return isa;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kBaseline: return "baseline";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "?";
}

const GemmKernels& GemmKernelsFor(Isa isa) {
  APT_CHECK(IsaSupported(isa)) << "GEMM variant " << IsaName(isa)
                               << " is not supported on this host";
  switch (isa) {
#if APT_X86_VARIANTS
    case Isa::kAvx2: return kGemmAvx2;
    case Isa::kAvx512: return kGemmAvx512;
#endif
    default: return kGemmBaseline;
  }
}

}  // namespace kernel_detail

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
  const auto& kernels = HostGemm();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    kernels.nn(a.data, b.data, n, c.data, k, lo, hi, alpha, beta);
  }, RowGrain(k + n));
}

void MatmulTN(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c, float alpha, float beta) {
  // A is [k, m]; C = A^T B is [m, n].
  const std::int64_t k = a.rows, m = a.cols, n = b.cols;
  APT_CHECK_EQ(b.rows, k);
  APT_CHECK_EQ(c.rows, m);
  APT_CHECK_EQ(c.cols, n);
  if (m == 0 || n == 0) return;
  const auto& kernels = HostGemm();
  const bool pack = PackTN(m, k);
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    kernels.tn(a.data, m, b.data, n, c.data, k, lo, hi, alpha, beta, pack);
  }, RowGrain(k + n));
}

void MatmulNT(ConstMatrixRef a, ConstMatrixRef b, MatrixRef c, float alpha, float beta) {
  // B is [n, k]; C = A B^T is [m, n].
  const std::int64_t m = a.rows, k = a.cols, n = b.rows;
  APT_CHECK_EQ(b.cols, k);
  APT_CHECK_EQ(c.rows, m);
  APT_CHECK_EQ(c.cols, n);
  const auto& kernels = HostGemm();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    kernels.nt(a.data, b.data, c.data, k, n, lo, hi, alpha, beta);
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
  // gy[i] is loaded unconditionally so the select vectorizes (a load under
  // the condition blocks if-conversion); in place, it is read before the write.
  ParallelFor(0, x.numel(), [&](std::int64_t i) {
    const float g = gy[i];
    gx[i] = xp[i] > 0.0f ? g : 0.0f;
  }, 1 << 15);
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
