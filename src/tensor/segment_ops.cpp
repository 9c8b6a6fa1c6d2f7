#include "tensor/segment_ops.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "runtime/parallel_for.h"
#include "tensor/kernel_variants.h"

namespace apt {

namespace {

void CheckCsr(const CsrView& csr, ConstMatrixRef src, const Tensor& out) {
  APT_CHECK_GE(csr.num_dst(), 0);
  APT_CHECK_EQ(out.rows(), csr.num_dst());
  APT_CHECK_EQ(out.cols(), src.cols);
  APT_CHECK_EQ(csr.indptr[static_cast<std::size_t>(csr.num_dst())], csr.num_edges());
}

// ---------------------------------------------------------------------------
// SpMM row kernels, one variant per ISA (kernel_variants.h), selected once
// per process like the GEMM variants. A row's columns run in blocks whose
// accumulators stay in registers across all of the row's edges and are
// stored once: kRegs-register blocks, then one block of the registers left,
// then one block of the floats left. Per element the order is the scalar
// loop's: start from 0 (forward) or the existing grad_src value (backward),
// add the edge rows in edge order, then scale by 1/deg (mean forward). The
// file builds with -ffp-contract=off, so `acc += inv * g` stays a rounded
// product and a rounded sum on every ISA.
// ---------------------------------------------------------------------------

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // every vector user is inlined
using kernel_detail::LoadVec;
using kernel_detail::StoreVec;
using kernel_detail::Vec16;
using kernel_detail::Vec4;
using kernel_detail::Vec8;

[[noreturn, gnu::noinline, gnu::cold]] void BadSrcRow(std::int64_t s,
                                                      std::int64_t rows) {
  APT_CHECK(false) << "row " << s << " of " << rows;
  __builtin_unreachable();
}

// Row s of a [rows, cols] source, bounds-checked like Tensor::row.
inline const float* SrcRow(const float* src, std::int64_t rows,
                           std::int64_t cols, std::int64_t s) {
  if (s < 0 || s >= rows) BadSrcRow(s, rows);
  return src + s * cols;
}

// Calls block.template operator()<V, n>(j) for a block of n registers
// starting at column j, with n = `regs` (1..kRegs).
template <typename V, int kRegs, typename Block>
inline void RegisterBlock(std::int64_t regs, std::int64_t j, const Block& block) {
  if constexpr (kRegs > 1) {
    if (regs < kRegs) {
      RegisterBlock<V, kRegs - 1>(regs, j, block);
      return;
    }
  }
  block.template operator()<V, kRegs>(j);
}

// Splits columns [0, dim) into register blocks (see above).
template <typename V, int kRegs, typename Block>
inline void ForRowBlocks(std::int64_t dim, const Block& block) {
  constexpr std::int64_t kW = sizeof(V) / sizeof(float);
  std::int64_t j = 0;
  for (; j + kRegs * kW <= dim; j += kRegs * kW) {
    block.template operator()<V, kRegs>(j);
  }
  if (const std::int64_t regs = (dim - j) / kW; regs > 0) {
    RegisterBlock<V, kRegs - 1>(regs, j, block);
    j += regs * kW;
  }
  if (j < dim) RegisterBlock<float, kW - 1>(dim - j, j, block);
}

template <typename V, int kRegs>
inline void SpmmForwardRows(const CsrView& csr, const float* src,
                            std::int64_t src_rows, std::int64_t dim, float* out,
                            std::int64_t lo, std::int64_t hi, bool mean) {
  for (std::int64_t d = lo; d < hi; ++d) {
    const std::int64_t e0 = csr.indptr[d], e1 = csr.indptr[d + 1];
    const bool scale = mean && e1 > e0;
    const float inv = scale ? 1.0f / static_cast<float>(e1 - e0) : 1.0f;
    float* orow = out + d * dim;
    ForRowBlocks<V, kRegs>(dim, [&]<typename BV, int kN>(std::int64_t j) {
      constexpr std::int64_t kBW = sizeof(BV) / sizeof(float);
      BV acc[kN] = {};
      for (std::int64_t e = e0; e < e1; ++e) {
        const float* srow =
            SrcRow(src, src_rows, dim, csr.col[static_cast<std::size_t>(e)]) + j;
#pragma GCC unroll 16
        for (int r = 0; r < kN; ++r) acc[r] += LoadVec<BV>(srow + r * kBW);
      }
#pragma GCC unroll 16
      for (int r = 0; r < kN; ++r) {
        if (scale) acc[r] *= inv;
        StoreVec(orow + j + r * kBW, acc[r]);
      }
    });
  }
}

template <typename V, int kRegs, bool kMean>
inline void SpmmBackwardRows(const CsrTranspose& t, const float* g,
                             const float* inv_deg, std::int64_t dim,
                             float* grad_src, std::int64_t lo, std::int64_t hi) {
  for (std::int64_t s = lo; s < hi; ++s) {
    const std::int64_t e0 = t.indptr[static_cast<std::size_t>(s)];
    const std::int64_t e1 = t.indptr[static_cast<std::size_t>(s) + 1];
    float* srow = grad_src + s * dim;
    ForRowBlocks<V, kRegs>(dim, [&]<typename BV, int kN>(std::int64_t j) {
      constexpr std::int64_t kBW = sizeof(BV) / sizeof(float);
      BV acc[kN];
#pragma GCC unroll 16
      for (int r = 0; r < kN; ++r) acc[r] = LoadVec<BV>(srow + j + r * kBW);
      for (std::int64_t e = e0; e < e1; ++e) {
        const std::int64_t d = t.dst[static_cast<std::size_t>(e)];
        const float* grow = g + d * dim + j;
        if constexpr (kMean) {
          const float inv = inv_deg[d];
#pragma GCC unroll 16
          for (int r = 0; r < kN; ++r) acc[r] += inv * LoadVec<BV>(grow + r * kBW);
        } else {
#pragma GCC unroll 16
          for (int r = 0; r < kN; ++r) acc[r] += LoadVec<BV>(grow + r * kBW);
        }
      }
#pragma GCC unroll 16
      for (int r = 0; r < kN; ++r) StoreVec(srow + j + r * kBW, acc[r]);
    });
  }
}

#pragma GCC diagnostic pop

// The entry points of one variant (kernel_detail::SpmmKernels), compiled for
// the ISA in `attrs`, with 64-float blocks (32 on baseline SSE, whose 16
// registers cannot hold 64 floats and a load).
#define APT_SPMM_VARIANT(Suffix, attrs, V, kRegs)                              \
  attrs void SpmmForward##Suffix(const CsrView& csr, const float* src,        \
                                 std::int64_t src_rows, std::int64_t dim,      \
                                 float* out, std::int64_t lo, std::int64_t hi, \
                                 bool mean) {                                  \
    SpmmForwardRows<V, kRegs>(csr, src, src_rows, dim, out, lo, hi, mean);     \
  }                                                                            \
  attrs void SpmmBackward##Suffix(const CsrTranspose& t, const float* g,      \
                                  const float* inv_deg, std::int64_t dim,      \
                                  float* grad_src, std::int64_t lo,            \
                                  std::int64_t hi) {                           \
    if (inv_deg != nullptr) {                                                  \
      SpmmBackwardRows<V, kRegs, true>(t, g, inv_deg, dim, grad_src, lo, hi);  \
    } else {                                                                   \
      SpmmBackwardRows<V, kRegs, false>(t, g, inv_deg, dim, grad_src, lo, hi); \
    }                                                                          \
  }                                                                            \
  constexpr kernel_detail::SpmmKernels kSpmm##Suffix {                         \
    &SpmmForward##Suffix, &SpmmBackward##Suffix                                \
  }

APT_SPMM_VARIANT(Baseline, __attribute__((flatten)), Vec4, 8);
#if APT_X86_VARIANTS
APT_SPMM_VARIANT(Avx2, __attribute__((target("avx2"), flatten)), Vec8, 8);
APT_SPMM_VARIANT(Avx512, __attribute__((target("arch=x86-64-v4"), flatten)),
                 Vec16, 4);
#endif
#undef APT_SPMM_VARIANT

const kernel_detail::SpmmKernels& HostSpmm() {
  static const kernel_detail::SpmmKernels& kernels =
      kernel_detail::SpmmKernelsFor(kernel_detail::HostIsa());
  return kernels;
}

// Dynamic-chunk grain for source-major gathers: roughly 4k floats of row
// traffic per cursor claim, so skewed (power-law) sources rebalance.
std::int64_t SrcGrain(std::int64_t dim) {
  return std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, dim));
}

// Building a scratch transpose only pays off once the scatter volume beats
// the O(E + num_src) counting sort; below this the serial loop wins.
bool WorthTransposing(const CsrView& csr, std::int64_t dim) {
  return csr.num_edges() * dim >= (1 << 14);
}

// Picks the transpose for a backward scatter: the block-cached one when the
// view carries a cache, a scratch build when the problem is large enough,
// nullptr when the serial loop is cheaper.
const CsrTranspose* BackwardTranspose(const CsrView& csr, std::int64_t num_src,
                                      std::int64_t dim, CsrTranspose& scratch) {
  if (csr.tcache != nullptr) return &csr.tcache->Get(csr, num_src);
  if (!WorthTransposing(csr, dim)) return nullptr;
  scratch = BuildCsrTranspose(csr, num_src);
  return &scratch;
}

}  // namespace

const kernel_detail::SpmmKernels& kernel_detail::SpmmKernelsFor(Isa isa) {
  APT_CHECK(IsaSupported(isa)) << "SpMM variant " << IsaName(isa)
                               << " is not supported on this host";
  switch (isa) {
#if APT_X86_VARIANTS
    case Isa::kAvx2: return kSpmmAvx2;
    case Isa::kAvx512: return kSpmmAvx512;
#endif
    default: return kSpmmBaseline;
  }
}

CsrTranspose BuildCsrTranspose(const CsrView& csr, std::int64_t num_src) {
  APT_CHECK_GE(num_src, 0);
  const std::int64_t num_dst = csr.num_dst();
  const std::int64_t num_edges = csr.num_edges();
  CsrTranspose t;
  t.num_src = num_src;
  t.indptr.assign(static_cast<std::size_t>(num_src) + 1, 0);
  t.dst.resize(static_cast<std::size_t>(num_edges));
  t.eid.resize(static_cast<std::size_t>(num_edges));
  for (std::int64_t e = 0; e < num_edges; ++e) {
    const std::int64_t s = csr.col[static_cast<std::size_t>(e)];
    APT_CHECK(s >= 0 && s < num_src) << "col " << s << " of " << num_src;
    ++t.indptr[static_cast<std::size_t>(s) + 1];
  }
  for (std::size_t s = 0; s < static_cast<std::size_t>(num_src); ++s) {
    t.indptr[s + 1] += t.indptr[s];
  }
  std::vector<std::int64_t> cursor(t.indptr.begin(), t.indptr.end() - 1);
  for (std::int64_t d = 0; d < num_dst; ++d) {
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const std::int64_t s = csr.col[static_cast<std::size_t>(e)];
      const std::int64_t slot = cursor[static_cast<std::size_t>(s)]++;
      t.dst[static_cast<std::size_t>(slot)] = d;
      t.eid[static_cast<std::size_t>(slot)] = e;
    }
  }
  return t;
}

const CsrTranspose& CsrTransposeCache::Get(const CsrView& csr,
                                           std::int64_t num_src) const {
  if (cached_ == nullptr || cached_->num_src != num_src ||
      static_cast<std::int64_t>(cached_->dst.size()) != csr.num_edges()) {
    cached_ = std::make_shared<const CsrTranspose>(BuildCsrTranspose(csr, num_src));
  }
  return *cached_;
}

void SpmmSum(const CsrView& csr, const Tensor& src, Tensor& out) {
  CheckCsr(csr, src, out);
  const auto& kernels = HostSpmm();
  ParallelForChunks(0, csr.num_dst(), [&](std::int64_t lo, std::int64_t hi) {
    kernels.forward(csr, src.data(), src.rows(), src.cols(), out.data(), lo, hi,
                    /*mean=*/false);
  }, 64);
}

void SpmmSumBackward(const CsrView& csr, const Tensor& grad_out, Tensor& grad_src) {
  APT_CHECK_EQ(grad_out.rows(), csr.num_dst());
  APT_CHECK_EQ(grad_out.cols(), grad_src.cols());
  const std::int64_t dim = grad_src.cols();
  CsrTranspose scratch;
  const CsrTranspose* t = BackwardTranspose(csr, grad_src.rows(), dim, scratch);
  if (t != nullptr) {
    // Source-major parallel gather: each lane owns disjoint source rows.
    const auto& kernels = HostSpmm();
    ParallelForChunksDynamic(0, t->num_src, [&](std::int64_t lo, std::int64_t hi) {
      kernels.backward(*t, grad_out.data(), nullptr, dim, grad_src.data(), lo, hi);
    }, SrcGrain(dim));
    return;
  }
  // Tiny problems: serial over destinations (edges may share a source row).
  for (std::int64_t d = 0; d < csr.num_dst(); ++d) {
    const float* grow = grad_out.data() + d * dim;
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      float* srow = grad_src.row(csr.col[static_cast<std::size_t>(e)]);
      for (std::int64_t j = 0; j < dim; ++j) srow[j] += grow[j];
    }
  }
}

void SpmmMean(const CsrView& csr, ConstMatrixRef src, Tensor& out) {
  CheckCsr(csr, src, out);
  const auto& kernels = HostSpmm();
  ParallelForChunks(0, csr.num_dst(), [&](std::int64_t lo, std::int64_t hi) {
    kernels.forward(csr, src.data, src.rows, src.cols, out.data(), lo, hi,
                    /*mean=*/true);
  }, 64);
}

void SpmmMeanBackward(const CsrView& csr, const Tensor& grad_out, Tensor& grad_src) {
  APT_CHECK_EQ(grad_out.rows(), csr.num_dst());
  APT_CHECK_EQ(grad_out.cols(), grad_src.cols());
  const std::int64_t dim = grad_src.cols();
  CsrTranspose scratch;
  const CsrTranspose* t = BackwardTranspose(csr, grad_src.rows(), dim, scratch);
  if (t != nullptr) {
    std::vector<float> inv_deg(static_cast<std::size_t>(csr.num_dst()));
    for (std::int64_t d = 0; d < csr.num_dst(); ++d) {
      const std::int64_t deg = csr.indptr[d + 1] - csr.indptr[d];
      inv_deg[static_cast<std::size_t>(d)] =
          deg > 0 ? 1.0f / static_cast<float>(deg) : 0.0f;
    }
    const auto& kernels = HostSpmm();
    ParallelForChunksDynamic(0, t->num_src, [&](std::int64_t lo, std::int64_t hi) {
      kernels.backward(*t, grad_out.data(), inv_deg.data(), dim, grad_src.data(),
                       lo, hi);
    }, SrcGrain(dim));
    return;
  }
  for (std::int64_t d = 0; d < csr.num_dst(); ++d) {
    const std::int64_t deg = csr.indptr[d + 1] - csr.indptr[d];
    if (deg == 0) continue;
    const float inv = 1.0f / static_cast<float>(deg);
    const float* grow = grad_out.data() + d * dim;
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      float* srow = grad_src.row(csr.col[static_cast<std::size_t>(e)]);
      for (std::int64_t j = 0; j < dim; ++j) srow[j] += inv * grow[j];
    }
  }
}

void SpmmWeightedSum(const CsrView& csr, std::span<const float> edge_w,
                     const Tensor& src, Tensor& out) {
  CheckCsr(csr, src, out);
  APT_CHECK_EQ(static_cast<std::int64_t>(edge_w.size()), csr.num_edges());
  const std::int64_t dim = src.cols();
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    float* orow = out.data() + d * dim;
    std::fill(orow, orow + dim, 0.0f);
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const float w = edge_w[static_cast<std::size_t>(e)];
      const float* srow = src.row(csr.col[static_cast<std::size_t>(e)]);
      for (std::int64_t j = 0; j < dim; ++j) orow[j] += w * srow[j];
    }
  }, 64);
}

void SpmmWeightedSumBackward(const CsrView& csr, std::span<const float> edge_w,
                             const Tensor& src, const Tensor& grad_out,
                             std::span<float> grad_w, Tensor* grad_src) {
  APT_CHECK_EQ(grad_out.rows(), csr.num_dst());
  APT_CHECK_EQ(static_cast<std::int64_t>(edge_w.size()), csr.num_edges());
  const std::int64_t dim = src.cols();
  if (!grad_w.empty()) {
    APT_CHECK_EQ(static_cast<std::int64_t>(grad_w.size()), csr.num_edges());
  }
  if (grad_src != nullptr) {
    APT_CHECK_EQ(grad_src->rows(), src.rows());
  }
  CsrTranspose scratch;
  const CsrTranspose* t = BackwardTranspose(csr, src.rows(), dim, scratch);
  if (t != nullptr) {
    // Each original edge appears exactly once in the transpose, so the
    // per-edge grad_w writes are race-free alongside the per-source rows.
    const float* g = grad_out.data();
    const float* sp = src.data();
    float* gsp = grad_src != nullptr ? grad_src->data() : nullptr;
    ParallelForChunksDynamic(0, t->num_src, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t s = lo; s < hi; ++s) {
        const float* srow = sp + s * dim;
        float* gsrow = gsp != nullptr ? gsp + s * dim : nullptr;
        for (std::int64_t te = t->indptr[s]; te < t->indptr[s + 1]; ++te) {
          const std::size_t e = static_cast<std::size_t>(t->eid[static_cast<std::size_t>(te)]);
          const float* grow = g + t->dst[static_cast<std::size_t>(te)] * dim;
          if (!grad_w.empty()) {
            float acc = 0.0f;
            for (std::int64_t j = 0; j < dim; ++j) acc += grow[j] * srow[j];
            grad_w[e] += acc;
          }
          if (gsrow != nullptr) {
            const float w = edge_w[e];
            for (std::int64_t j = 0; j < dim; ++j) gsrow[j] += w * grow[j];
          }
        }
      }
    }, SrcGrain(dim));
    return;
  }
  for (std::int64_t d = 0; d < csr.num_dst(); ++d) {
    const float* grow = grad_out.data() + d * dim;
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const std::int64_t s = csr.col[static_cast<std::size_t>(e)];
      if (!grad_w.empty()) {
        const float* srow = src.row(s);
        float acc = 0.0f;
        for (std::int64_t j = 0; j < dim; ++j) acc += grow[j] * srow[j];
        grad_w[static_cast<std::size_t>(e)] += acc;
      }
      if (grad_src != nullptr) {
        const float w = edge_w[static_cast<std::size_t>(e)];
        float* gsrow = grad_src->row(s);
        for (std::int64_t j = 0; j < dim; ++j) gsrow[j] += w * grow[j];
      }
    }
  }
}

void SddmmAdd(const CsrView& csr, std::span<const float> a_src,
              std::span<const float> a_dst, std::span<float> score) {
  APT_CHECK_EQ(static_cast<std::int64_t>(score.size()), csr.num_edges());
  APT_CHECK_EQ(static_cast<std::int64_t>(a_dst.size()), csr.num_dst());
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const std::int64_t s = csr.col[static_cast<std::size_t>(e)];
      score[static_cast<std::size_t>(e)] =
          a_src[static_cast<std::size_t>(s)] + a_dst[static_cast<std::size_t>(d)];
    }
  }, 256);
}

void SddmmAddBackward(const CsrView& csr, std::span<const float> grad_score,
                      std::span<float> grad_a_src, std::span<float> grad_a_dst) {
  APT_CHECK_EQ(static_cast<std::int64_t>(grad_score.size()), csr.num_edges());
  APT_CHECK_EQ(static_cast<std::int64_t>(grad_a_dst.size()), csr.num_dst());
  if (csr.tcache != nullptr) {
    const CsrTranspose& t =
        csr.tcache->Get(csr, static_cast<std::int64_t>(grad_a_src.size()));
    ParallelForChunksDynamic(0, t.num_src, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t s = lo; s < hi; ++s) {
        float acc = 0.0f;
        for (std::int64_t e = t.indptr[s]; e < t.indptr[s + 1]; ++e) {
          acc += grad_score[static_cast<std::size_t>(t.eid[static_cast<std::size_t>(e)])];
        }
        grad_a_src[static_cast<std::size_t>(s)] += acc;
      }
    }, 512);
    ParallelForChunks(0, csr.num_dst(), [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t d = lo; d < hi; ++d) {
        float acc = 0.0f;
        for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
          acc += grad_score[static_cast<std::size_t>(e)];
        }
        grad_a_dst[static_cast<std::size_t>(d)] += acc;
      }
    }, 512);
    return;
  }
  for (std::int64_t d = 0; d < csr.num_dst(); ++d) {
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const std::int64_t s = csr.col[static_cast<std::size_t>(e)];
      grad_a_src[static_cast<std::size_t>(s)] += grad_score[static_cast<std::size_t>(e)];
      grad_a_dst[static_cast<std::size_t>(d)] += grad_score[static_cast<std::size_t>(e)];
    }
  }
}

void SegmentSoftmax(const CsrView& csr, std::span<const float> score,
                    std::span<float> out) {
  APT_CHECK_EQ(score.size(), out.size());
  APT_CHECK_EQ(static_cast<std::int64_t>(score.size()), csr.num_edges());
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    const std::int64_t lo = csr.indptr[d], hi = csr.indptr[d + 1];
    if (lo == hi) return;
    float maxv = score[static_cast<std::size_t>(lo)];
    for (std::int64_t e = lo + 1; e < hi; ++e) {
      maxv = std::max(maxv, score[static_cast<std::size_t>(e)]);
    }
    double denom = 0.0;
    for (std::int64_t e = lo; e < hi; ++e) {
      denom += std::exp(static_cast<double>(score[static_cast<std::size_t>(e)] - maxv));
    }
    for (std::int64_t e = lo; e < hi; ++e) {
      out[static_cast<std::size_t>(e)] = static_cast<float>(
          std::exp(static_cast<double>(score[static_cast<std::size_t>(e)] - maxv)) / denom);
    }
  }, 256);
}

void SegmentSoftmaxBackward(const CsrView& csr, std::span<const float> out,
                            std::span<const float> grad_out,
                            std::span<float> grad_score) {
  APT_CHECK_EQ(out.size(), grad_out.size());
  APT_CHECK_EQ(out.size(), grad_score.size());
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    const std::int64_t lo = csr.indptr[d], hi = csr.indptr[d + 1];
    double dot = 0.0;
    for (std::int64_t e = lo; e < hi; ++e) {
      dot += static_cast<double>(out[static_cast<std::size_t>(e)]) *
             grad_out[static_cast<std::size_t>(e)];
    }
    for (std::int64_t e = lo; e < hi; ++e) {
      const std::size_t idx = static_cast<std::size_t>(e);
      grad_score[idx] = out[idx] * (grad_out[idx] - static_cast<float>(dot));
    }
  }, 256);
}

void SegmentedSpmmMean(std::span<const CsrView> segments,
                       std::span<const std::int64_t> src_offsets,
                       std::span<const std::int64_t> dst_offsets, const Tensor& src,
                       Tensor& out) {
  APT_CHECK_EQ(src_offsets.size(), segments.size() + 1);
  APT_CHECK_EQ(dst_offsets.size(), segments.size() + 1);
  const std::int64_t dim = src.cols();
  APT_CHECK_EQ(out.cols(), dim);
  // Segments write disjoint dst row ranges, so they parallelize cleanly;
  // dynamic chunking absorbs unequal segment sizes.
  ParallelForDynamic(0, static_cast<std::int64_t>(segments.size()),
                     [&](std::int64_t si) {
    const std::size_t s = static_cast<std::size_t>(si);
    const CsrView& csr = segments[s];
    const std::int64_t src_base = src_offsets[s];
    const std::int64_t dst_base = dst_offsets[s];
    APT_CHECK_EQ(dst_offsets[s + 1] - dst_base, csr.num_dst());
    for (std::int64_t d = 0; d < csr.num_dst(); ++d) {
      float* orow = out.row(dst_base + d);
      std::fill(orow, orow + dim, 0.0f);
      const std::int64_t deg = csr.indptr[d + 1] - csr.indptr[d];
      if (deg == 0) continue;
      for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
        const float* srow = src.row(src_base + csr.col[static_cast<std::size_t>(e)]);
        for (std::int64_t j = 0; j < dim; ++j) orow[j] += srow[j];
      }
      const float inv = 1.0f / static_cast<float>(deg);
      for (std::int64_t j = 0; j < dim; ++j) orow[j] *= inv;
    }
  }, /*grain=*/1);
}

void SegmentedSpmmMeanBackward(std::span<const CsrView> segments,
                               std::span<const std::int64_t> src_offsets,
                               std::span<const std::int64_t> dst_offsets,
                               const Tensor& grad_out, Tensor& grad_src) {
  APT_CHECK_EQ(src_offsets.size(), segments.size() + 1);
  APT_CHECK_EQ(dst_offsets.size(), segments.size() + 1);
  const std::int64_t dim = grad_src.cols();
  // Each segment scatters into its own disjoint src row range [src_offsets[s],
  // src_offsets[s+1]); within a segment the scatter stays serial.
  ParallelForDynamic(0, static_cast<std::int64_t>(segments.size()),
                     [&](std::int64_t si) {
    const std::size_t s = static_cast<std::size_t>(si);
    const CsrView& csr = segments[s];
    const std::int64_t src_base = src_offsets[s];
    const std::int64_t dst_base = dst_offsets[s];
    for (std::int64_t d = 0; d < csr.num_dst(); ++d) {
      const std::int64_t deg = csr.indptr[d + 1] - csr.indptr[d];
      if (deg == 0) continue;
      const float inv = 1.0f / static_cast<float>(deg);
      const float* grow = grad_out.row(dst_base + d);
      for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
        float* srow = grad_src.row(src_base + csr.col[static_cast<std::size_t>(e)]);
        for (std::int64_t j = 0; j < dim; ++j) srow[j] += inv * grow[j];
      }
    }
  }, /*grain=*/1);
}

}  // namespace apt
