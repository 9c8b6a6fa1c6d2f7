// Per-ISA variants of the GEMM and SpMM kernels (implementation detail).
//
// The public kernels (ops.h, segment_ops.h) run the variant HostIsa() picks
// once per process. Tests reach every variant the host supports through this
// header, to pin each one to its documented accumulation order; nothing else
// should call these directly.
#pragma once

#include <cstdint>

// The AVX2 and AVX-512 variants exist on x86-64 GCC-compatible compilers;
// elsewhere only the baseline variant is built.
#if defined(__x86_64__) && defined(__GNUC__)
#define APT_X86_VARIANTS 1
#else
#define APT_X86_VARIANTS 0
#endif

namespace apt {

struct CsrView;
struct CsrTranspose;

namespace kernel_detail {

enum class Isa { kBaseline, kAvx2, kAvx512 };

// Fixed-width float vectors, one register each of SSE, AVX2 and AVX-512,
// and unaligned loads / stores of them. Inside a variant's `target` function
// the element-wise operators lower to that ISA's instructions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // The vectors never cross a real
                                          // ABI boundary: every user is inlined.
typedef float Vec4 __attribute__((vector_size(4 * sizeof(float))));
typedef float Vec8 __attribute__((vector_size(8 * sizeof(float))));
typedef float Vec16 __attribute__((vector_size(16 * sizeof(float))));

template <typename V>
inline V LoadVec(const float* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

template <typename V>
inline void StoreVec(float* p, const V& v) {
  __builtin_memcpy(p, &v, sizeof(v));
}
#pragma GCC diagnostic pop

/// Whether this host can run `isa`'s variant.
bool IsaSupported(Isa isa);
/// The widest variant the host supports, detected once per process.
Isa HostIsa();
const char* IsaName(Isa isa);

/// GEMM row-block kernels of one ISA: each updates C rows [lo, hi) of a
/// row-major [m, n] C.
struct GemmKernels {
  /// C = alpha A B + beta C; A is [m, k].
  void (*nn)(const float* a, const float* b, std::int64_t n, float* c,
             std::int64_t k, std::int64_t lo, std::int64_t hi, float alpha,
             float beta);
  /// C = alpha A^T B + beta C; A is [k, m]. `pack` reads A through a packed
  /// tile-major copy of each k-panel instead of in place.
  void (*tn)(const float* a, std::int64_t m, const float* b, std::int64_t n,
             float* c, std::int64_t k, std::int64_t lo, std::int64_t hi,
             float alpha, float beta, bool pack);
  /// C = alpha A B^T + beta C; A is [m, k], B is [n, k].
  void (*nt)(const float* a, const float* b, float* c, std::int64_t k,
             std::int64_t n, std::int64_t lo, std::int64_t hi, float alpha,
             float beta);
  /// True when the multiply-adds are fused (FMA, one rounding):
  /// acc = fma(a, b, acc) and c = fma(alpha, acc, c). Otherwise each product
  /// and each sum is rounded on its own.
  bool fused;
};

const GemmKernels& GemmKernelsFor(Isa isa);

/// SpMM row kernels of one ISA. Each row accumulates its edges' rows in
/// registers, in edge order, and is stored once.
struct SpmmKernels {
  /// out rows [lo, hi) = sum (or mean, when `mean`) of the csr's source rows
  /// of `src` ([src_rows, dim], row-checked per edge); a row without edges
  /// is 0.
  void (*forward)(const CsrView& csr, const float* src, std::int64_t src_rows,
                  std::int64_t dim, float* out, std::int64_t lo,
                  std::int64_t hi, bool mean);
  /// Source-major backward gather for source rows [lo, hi):
  /// grad_src[s] += g[d] (or inv_deg[d] * g[d]) over s's transposed edges.
  void (*backward)(const CsrTranspose& t, const float* g,
                   const float* inv_deg, std::int64_t dim, float* grad_src,
                   std::int64_t lo, std::int64_t hi);
};

const SpmmKernels& SpmmKernelsFor(Isa isa);

}  // namespace kernel_detail
}  // namespace apt
