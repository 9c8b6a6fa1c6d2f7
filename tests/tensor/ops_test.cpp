// Dense kernel tests: shape checks, exact small cases, and numerical
// gradient checks for the loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/random.h"
#include "runtime/parallel_for.h"
#include "tensor/init.h"
#include "tensor/kernel_variants.h"
#include "tensor/ops.h"

namespace apt {
namespace {

Tensor RandTensor(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Tensor t(r, c);
  Rng rng(seed);
  UniformInit(t, rng, -1.0f, 1.0f);
  return t;
}

TEST(TensorTest, ShapeAndAccessors) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.numel(), 12);
  EXPECT_EQ(t.bytes(), 48);
  t.at(2, 3) = 5.0f;
  EXPECT_EQ(t(2, 3), 5.0f);
  EXPECT_EQ(t.ShapeString(), "[3, 4]");
  EXPECT_THROW(t.at(3, 0), Error);
  EXPECT_THROW(t.at(0, 4), Error);
}

TEST(TensorTest, RowSpanAndFill) {
  Tensor t(2, 3);
  t.Fill(2.5f);
  for (float v : t.row_span(1)) EXPECT_EQ(v, 2.5f);
  t.Zero();
  EXPECT_EQ(t(0, 0), 0.0f);
}

TEST(TensorTest, ConstructFromData) {
  Tensor t(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t(1, 0), 3.0f);
  EXPECT_THROW(Tensor(2, 2, {1, 2, 3}), Error);
}

TEST(TensorTest, UninitializedHasShape) {
  Tensor t = Tensor::Uninitialized(3, 5);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 5);
  EXPECT_EQ(t.numel(), 15);
  EXPECT_EQ(t.bytes(), 60);
  ASSERT_NE(t.data(), nullptr);
  t.Fill(1.5f);  // every element is writable
  EXPECT_EQ(t(2, 4), 1.5f);
  EXPECT_TRUE(Tensor::Uninitialized(0, 7).empty());
  EXPECT_EQ(Tensor::Uninitialized(0, 7).cols(), 7);
}

TEST(TensorTest, UninitializedRejectsNegativeDims) {
  EXPECT_THROW(Tensor::Uninitialized(-1, 4), Error);
  EXPECT_THROW(Tensor::Uninitialized(4, -1), Error);
  EXPECT_THROW(Tensor(-1, 4), Error);
}

TEST(TensorTest, UninitializedMoveKeepsBufferAndEmptiesSource) {
  Tensor src = Tensor::Uninitialized(4, 6);
  src.Fill(2.0f);
  const float* buf = src.data();

  Tensor moved(std::move(src));
  EXPECT_EQ(moved.data(), buf);
  EXPECT_EQ(moved.rows(), 4);
  EXPECT_EQ(moved.cols(), 6);
  EXPECT_EQ(moved(3, 5), 2.0f);
  EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move): the contract
  EXPECT_EQ(src.rows(), 0);
  EXPECT_EQ(src.cols(), 0);

  Tensor assigned(1, 1);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), buf);
  EXPECT_EQ(assigned.rows(), 4);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.rows(), 0);

  // Copies stay deep.
  const Tensor copy = assigned;
  EXPECT_NE(copy.data(), assigned.data());
  EXPECT_EQ(std::memcmp(copy.data(), assigned.data(),
                        static_cast<std::size_t>(copy.bytes())),
            0);
}

TEST(TensorTest, RowRangeViewsRowsInPlace) {
  const Tensor t = RandTensor(5, 3, 77);
  const ConstMatrixRef v = RowRange(t, 1, 3);
  EXPECT_EQ(v.data, t.row(1));
  EXPECT_EQ(v.rows, 3);
  EXPECT_EQ(v.cols, 3);
  EXPECT_EQ(RowRange(t, 5, 0).rows, 0);
  EXPECT_THROW(RowRange(t, 3, 3), Error);
  EXPECT_THROW(RowRange(t, -1, 2), Error);

  // A kernel reading the view matches one reading a copy of the rows.
  Tensor copy(3, 3);
  std::copy_n(t.row(1), 9, copy.data());
  const Tensor w = RandTensor(3, 2, 78);
  Tensor from_view(3, 2), from_copy(3, 2);
  Matmul(v, w, from_view);
  Matmul(copy, w, from_copy);
  EXPECT_EQ(std::memcmp(from_view.data(), from_copy.data(),
                        static_cast<std::size_t>(from_view.bytes())),
            0);
}

TEST(MatmulTest, KnownProduct) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c(2, 2);
  Matmul(a, b, c);
  EXPECT_FLOAT_EQ(c(0, 0), 58);
  EXPECT_FLOAT_EQ(c(0, 1), 64);
  EXPECT_FLOAT_EQ(c(1, 0), 139);
  EXPECT_FLOAT_EQ(c(1, 1), 154);
}

TEST(MatmulTest, AlphaBetaAccumulate) {
  Tensor a(1, 1, {2});
  Tensor b(1, 1, {3});
  Tensor c(1, 1, {10});
  Matmul(a, b, c, /*alpha=*/2.0f, /*beta=*/1.0f);
  EXPECT_FLOAT_EQ(c(0, 0), 22);  // 10 + 2*2*3
  Matmul(a, b, c, 1.0f, 0.5f);
  EXPECT_FLOAT_EQ(c(0, 0), 17);  // 22*0.5 + 6
}

TEST(MatmulTest, TransposedVariantsAgree) {
  const Tensor a = RandTensor(5, 7, 1);
  const Tensor b = RandTensor(7, 4, 2);
  Tensor ref(5, 4);
  Matmul(a, b, ref);
  // MatmulTN: pass a^T explicitly.
  Tensor at(7, 5);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 7; ++j) at(j, i) = a(i, j);
  }
  Tensor c1(5, 4);
  MatmulTN(at, b, c1);
  EXPECT_LT(MaxAbsDiff(ref, c1), 1e-5f);
  // MatmulNT: pass b^T explicitly.
  Tensor bt(4, 7);
  for (std::int64_t i = 0; i < 7; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) bt(j, i) = b(i, j);
  }
  Tensor c2(5, 4);
  MatmulNT(a, bt, c2);
  EXPECT_LT(MaxAbsDiff(ref, c2), 1e-5f);
}

TEST(MatmulTest, ShapeMismatchThrows) {
  Tensor a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(Matmul(a, b, c), Error);
}

// Naive triple-loop references for the blocked kernels. Kept deliberately
// dumb: the production kernels tile and re-associate, so we compare with a
// tolerance scaled by the reduction depth.
void RefMatmul(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
               float beta) {
  for (std::int64_t i = 0; i < c.rows(); ++i) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < a.cols(); ++p) acc += double(a(i, p)) * b(p, j);
      c(i, j) = alpha * static_cast<float>(acc) + (beta == 0.0f ? 0.0f : beta * c(i, j));
    }
  }
}

void RefMatmulTN(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
                 float beta) {
  for (std::int64_t i = 0; i < c.rows(); ++i) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < a.rows(); ++p) acc += double(a(p, i)) * b(p, j);
      c(i, j) = alpha * static_cast<float>(acc) + (beta == 0.0f ? 0.0f : beta * c(i, j));
    }
  }
}

void RefMatmulNT(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
                 float beta) {
  for (std::int64_t i = 0; i < c.rows(); ++i) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < a.cols(); ++p) acc += double(a(i, p)) * b(j, p);
      c(i, j) = alpha * static_cast<float>(acc) + (beta == 0.0f ? 0.0f : beta * c(i, j));
    }
  }
}

TEST(MatmulTest, RandomizedParityOddShapes) {
  // Shapes chosen to hit every edge path of the register-blocked kernels:
  // every row rim (m % 8), column rims (n % 16, NT's n % 4), partial
  // k-panels (k % 256), and degenerate 1-row/1-col cases.
  const std::int64_t shapes[][3] = {
      {1, 1, 1},    {2, 3, 5},     {3, 9, 7},    {5, 17, 33},  {7, 63, 9},
      {9, 65, 17},  {33, 7, 65},   {63, 33, 63}, {65, 8, 4},   {4, 257, 8},
      {8, 16, 16},  {6, 255, 31},  {10, 256, 47}, {12, 300, 30}, {14, 600, 18},
      {15, 31, 129}, {16, 257, 64}, {17, 5, 15},  {22, 100, 2},  {24, 40, 160},
  };
  const float ab[][2] = {{1.0f, 0.0f}, {2.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, -1.5f}};
  std::uint64_t seed = 100;
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], k = s[1], n = s[2];
    for (const auto& co : ab) {
      const float alpha = co[0], beta = co[1];
      const float tol = 1e-4f * static_cast<float>(k);
      {
        const Tensor a = RandTensor(m, k, seed++);
        const Tensor b = RandTensor(k, n, seed++);
        Tensor c = RandTensor(m, n, seed++);
        Tensor ref = c;
        RefMatmul(a, b, ref, alpha, beta);
        Matmul(a, b, c, alpha, beta);
        EXPECT_LT(MaxAbsDiff(ref, c), tol)
            << "Matmul m=" << m << " k=" << k << " n=" << n << " alpha=" << alpha
            << " beta=" << beta;
      }
      {
        const Tensor a = RandTensor(k, m, seed++);  // stored transposed
        const Tensor b = RandTensor(k, n, seed++);
        Tensor c = RandTensor(m, n, seed++);
        Tensor ref = c;
        RefMatmulTN(a, b, ref, alpha, beta);
        MatmulTN(a, b, c, alpha, beta);
        EXPECT_LT(MaxAbsDiff(ref, c), tol)
            << "MatmulTN m=" << m << " k=" << k << " n=" << n;
      }
      {
        const Tensor a = RandTensor(m, k, seed++);
        const Tensor b = RandTensor(n, k, seed++);  // stored transposed
        Tensor c = RandTensor(m, n, seed++);
        Tensor ref = c;
        RefMatmulNT(a, b, ref, alpha, beta);
        MatmulNT(a, b, c, alpha, beta);
        EXPECT_LT(MaxAbsDiff(ref, c), tol)
            << "MatmulNT m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

enum class GemmOp { kNN, kTN, kNT };

const char* Name(GemmOp op) {
  return op == GemmOp::kNN ? "Matmul" : op == GemmOp::kTN ? "MatmulTN" : "MatmulNT";
}

void RunGemm(GemmOp op, ConstMatrixRef a, ConstMatrixRef b, MatrixRef c,
             float alpha, float beta) {
  switch (op) {
    case GemmOp::kNN: return Matmul(a, b, c, alpha, beta);
    case GemmOp::kTN: return MatmulTN(a, b, c, alpha, beta);
    case GemmOp::kNT: return MatmulNT(a, b, c, alpha, beta);
  }
}

bool BitEqual(const float* x, const float* y, std::int64_t n) {
  return std::memcmp(x, y, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

/// Operands of C[m,n] = op(A) op(B) in the layouts each GemmOp takes.
struct GemmCase {
  GemmOp op;
  std::int64_t m, k, n;
  float alpha, beta;
  Tensor a, b, c0;
  GemmCase(GemmOp o, std::int64_t m_, std::int64_t k_, std::int64_t n_, float al,
           float be, std::uint64_t seed)
      : op(o), m(m_), k(k_), n(n_), alpha(al), beta(be),
        a(o == GemmOp::kTN ? RandTensor(k, m, seed) : RandTensor(m, k, seed)),
        b(o == GemmOp::kNT ? RandTensor(n, k, seed + 1) : RandTensor(k, n, seed + 1)),
        c0(RandTensor(m, n, seed + 2)) {}

  Tensor Whole() const {
    Tensor c = c0;
    RunGemm(op, a, b, c, alpha, beta);
    return c;
  }

  /// One call per C row.
  Tensor RowByRow() const {
    Tensor c = c0;
    for (std::int64_t i = 0; i < m; ++i) {
      const MatrixRef crow(c.row(i), 1, n);
      if (op == GemmOp::kTN) {
        Tensor col(k, 1);  // row i of C = column i of the stored [k, m] A
        for (std::int64_t p = 0; p < k; ++p) col(p, 0) = a(p, i);
        RunGemm(op, col, b, crow, alpha, beta);
      } else {
        RunGemm(op, ConstMatrixRef(a.row(i), 1, k), b, crow, alpha, beta);
      }
    }
    return c;
  }

  /// Operands and C as the leading rows of taller tensors whose extra rows
  /// must be neither read nor written.
  Tensor ViaRowPrefix() const {
    constexpr std::int64_t kExtra = 3;
    const auto tall = [](const Tensor& t) {
      Tensor out(t.rows() + kExtra, t.cols());
      out.Fill(std::nanf(""));
      std::copy_n(t.data(), t.numel(), out.data());
      return out;
    };
    const Tensor ta = tall(a), tb = tall(b);
    Tensor tc(m + kExtra, n);
    tc.Fill(-7.0f);
    std::copy_n(c0.data(), c0.numel(), tc.data());
    RunGemm(op, RowPrefix(ta, a.rows()), RowPrefix(tb, b.rows()), RowPrefix(tc, m),
            alpha, beta);
    for (std::int64_t i = m * n; i < tc.numel(); ++i) {
      EXPECT_EQ(tc.data()[i], -7.0f) << "row prefix wrote past its rows";
    }
    Tensor c(m, n);
    std::copy_n(tc.data(), c.numel(), c.data());
    return c;
  }

  std::string Label() const {
    std::ostringstream os;
    os << Name(op) << " m=" << m << " k=" << k << " n=" << n << " alpha=" << alpha
       << " beta=" << beta;
    return os.str();
  }
};

TEST(MatmulTest, TilingInvariantBitwise) {
  // Every C element has one accumulation order, so the result is bit-identical
  // however the rows are split: across lanes, one row per call, or through
  // row-prefix views. m = 8..15 covers each row rim mod 8 next to a full
  // tile, n = 16..31 each column rim mod 16; k straddles the 256 panel.
  const GemmOp ops[] = {GemmOp::kNN, GemmOp::kTN, GemmOp::kNT};
  const std::int64_t ks[] = {1, 255, 256, 257, 600};
  const float ab[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, -1.5f}};
  std::uint64_t seed = 500;
  for (const GemmOp op : ops) {
    for (std::int64_t m = 8; m < 16; ++m) {
      for (std::int64_t n = 16; n < 32; ++n) {
        for (const std::int64_t k : ks) {
          for (const auto& co : ab) {
            const GemmCase g(op, m, k, n, co[0], co[1], seed += 3);
            Tensor one_lane;
            {
              ScopedParallelismLimit limit(1);
              one_lane = g.Whole();
            }
            const std::int64_t numel = m * n;
            ASSERT_TRUE(BitEqual(one_lane.data(), g.Whole().data(), numel))
                << g.Label() << " all lanes";
            ASSERT_TRUE(BitEqual(one_lane.data(), g.RowByRow().data(), numel))
                << g.Label() << " single rows";
            ASSERT_TRUE(BitEqual(one_lane.data(), g.ViaRowPrefix().data(), numel))
                << g.Label() << " row prefix";
          }
        }
      }
    }
  }
}

TEST(MatmulTest, LaneSplitInvariantBitwise) {
  // Tall enough that every op actually forks (m above the row grain even at
  // k = 1), with m % 8 != 0 so lane chunks end mid-tile.
  const GemmOp ops[] = {GemmOp::kNN, GemmOp::kTN, GemmOp::kNT};
  const std::int64_t ks[] = {1, 257, 600};
  const std::int64_t ns[] = {16, 47};
  const float ab[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, -1.5f}};
  std::uint64_t seed = 900;
  for (const GemmOp op : ops) {
    for (const std::int64_t k : ks) {
      for (const std::int64_t n : ns) {
        for (const auto& co : ab) {
          const GemmCase g(op, 1029, k, n, co[0], co[1], seed += 3);
          Tensor one_lane;
          {
            ScopedParallelismLimit limit(1);
            one_lane = g.Whole();
          }
          ASSERT_TRUE(BitEqual(one_lane.data(), g.Whole().data(), g.m * n))
              << g.Label();
        }
      }
    }
  }
}

// C = alpha * A B + beta * C in the documented per-element order: beta up
// front, then per 256-wide k-panel acc = 0, acc += a(i,p) * b(p,j) for p
// ascending, c += alpha * acc. `fused` rounds each multiply-add once, as a
// variant whose ISA has FMA does. (This file builds with -ffp-contract=off,
// so the unfused form stays unfused.)
Tensor OrderedGemm(const Tensor& a, const Tensor& b, const Tensor& c0,
                   float alpha, float beta, bool fused) {
  const std::int64_t k = a.cols();
  Tensor c = c0;
  for (std::int64_t i = 0; i < c.rows(); ++i) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      float cv = beta == 0.0f ? 0.0f : beta == 1.0f ? c(i, j) : c(i, j) * beta;
      for (std::int64_t p0 = 0; p0 < k; p0 += 256) {
        float acc = 0.0f;
        for (std::int64_t p = p0; p < std::min(k, p0 + 256); ++p) {
          acc = fused ? std::fma(a(i, p), b(p, j), acc) : acc + a(i, p) * b(p, j);
        }
        cv = fused ? std::fma(alpha, acc, cv) : cv + alpha * acc;
      }
      c(i, j) = cv;
    }
  }
  return c;
}

/// `t` as the leading rows of a taller tensor whose extra rows hold `pad`.
Tensor Tall(const Tensor& t, float pad) {
  Tensor out(t.rows() + 3, t.cols());
  out.Fill(pad);
  std::copy_n(t.data(), t.numel(), out.data());
  return out;
}

TEST(MatmulTest, IsaVariantsMatchReferenceBitwise) {
  // Every NN / TN variant the host runs (TN read in place and through the
  // packed panel) equals the documented order bit for bit: every row residue
  // of the 12 / 6 / 4-row tiles, the 32 / 16 / 8-wide tiles, the one-register
  // tile and the padded rim, and k around the 256 panel. Operands and C are
  // row-prefix views of taller tensors (NaN / sentinel rows past the view),
  // and each call is split into two row ranges that end mid-tile.
  using kernel_detail::Isa;
  std::vector<Isa> isas;
  for (const Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
    if (kernel_detail::IsaSupported(isa)) isas.push_back(isa);
  }
  ASSERT_EQ(kernel_detail::GemmKernelsFor(kernel_detail::HostIsa()).nn,
            kernel_detail::GemmKernelsFor(isas.back()).nn)
      << "the public kernels run the widest supported variant";
  const std::int64_t ns[] = {1, 15, 16, 17, 31, 32, 33, 48, 128, 130};
  const std::int64_t ks[] = {1, 255, 256, 257, 600};
  const float ab[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, -1.5f}};
  constexpr float kSentinel = -7.0f;
  std::uint64_t seed = 7000;
  for (std::int64_t m = 1; m <= 24; ++m) {
    for (const std::int64_t n : ns) {
      for (const std::int64_t k : ks) {
        const Tensor a = RandTensor(m, k, seed++);
        Tensor at(k, m);  // A stored transposed for TN
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t p = 0; p < k; ++p) at(p, i) = a(i, p);
        }
        const Tensor b = RandTensor(k, n, seed++);
        const Tensor c0 = RandTensor(m, n, seed++);
        const Tensor ta = Tall(a, std::nanf("")), tat = Tall(at, std::nanf(""));
        const Tensor tb = Tall(b, std::nanf(""));
        const std::int64_t split = m / 3;
        for (const auto& co : ab) {
          const float alpha = co[0], beta = co[1];
          Tensor ref[2];  // unfused, fused: built on first use
          bool have[2] = {false, false};
          for (const Isa isa : isas) {
            const auto& kern = kernel_detail::GemmKernelsFor(isa);
            const int f = kern.fused ? 1 : 0;
            if (!have[f]) {
              ref[f] = OrderedGemm(a, b, c0, alpha, beta, kern.fused);
              have[f] = true;
            }
            for (int path = 0; path < 3; ++path) {  // NN, TN in place, TN packed
              Tensor tc = Tall(c0, kSentinel);
              for (const auto& [lo, hi] : {std::pair{std::int64_t{0}, split},
                                            std::pair{split, m}}) {
                if (path == 0) {
                  kern.nn(ta.data(), tb.data(), n, tc.data(), k, lo, hi, alpha, beta);
                } else {
                  kern.tn(tat.data(), m, tb.data(), n, tc.data(), k, lo, hi, alpha,
                          beta, /*pack=*/path == 2);
                }
              }
              const char* names[] = {"NN", "TN", "TN packed"};
              ASSERT_TRUE(BitEqual(tc.data(), ref[f].data(), m * n))
                  << kernel_detail::IsaName(isa) << " " << names[path] << " m=" << m
                  << " k=" << k << " n=" << n << " alpha=" << alpha << " beta=" << beta;
              for (std::int64_t i = m * n; i < tc.numel(); ++i) {
                ASSERT_EQ(tc.data()[i], kSentinel) << "wrote past the row prefix";
              }
            }
          }
        }
      }
    }
  }
}

TEST(MatmulTest, RowPrefixChecksBounds) {
  Tensor t(3, 2);
  EXPECT_EQ(RowPrefix(t, 2).rows, 2);
  EXPECT_EQ(RowPrefix(t, 0).rows, 0);
  EXPECT_THROW(RowPrefix(t, 4), Error);
  EXPECT_THROW(RowPrefix(t, -1), Error);
}

TEST(MatmulTest, EmptyOutputsAreNoOps) {
  Tensor a(0, 3), b(3, 2), c(0, 2);
  Matmul(a, b, c);  // must not touch memory or divide by zero
  Tensor a2(2, 0), b2(0, 3), c2(2, 3);
  c2.Fill(7.0f);
  Matmul(a2, b2, c2, 1.0f, 0.0f);  // k == 0: beta pass still applies
  EXPECT_FLOAT_EQ(c2(1, 2), 0.0f);
}

TEST(ElementwiseTest, AxpyScaleAdd) {
  Tensor x(1, 4, {1, 2, 3, 4});
  Tensor y(1, 4, {10, 20, 30, 40});
  Axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y(0, 3), 48);
  Scale(y, 0.5f);
  EXPECT_FLOAT_EQ(y(0, 0), 6);
  Tensor out(1, 4);
  Add(x, y, out);
  EXPECT_FLOAT_EQ(out(0, 0), 7);
}

TEST(ElementwiseTest, BiasRoundTrip) {
  Tensor x(3, 2);
  Tensor bias(1, 2, {1.5f, -2.0f});
  AddBiasRows(x, bias);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(x(i, 0), 1.5f);
    EXPECT_FLOAT_EQ(x(i, 1), -2.0f);
  }
  Tensor gb(1, 2);
  BiasGradRows(x, gb);
  EXPECT_FLOAT_EQ(gb(0, 0), 4.5f);
  EXPECT_FLOAT_EQ(gb(0, 1), -6.0f);
}

TEST(ActivationTest, ReluForwardBackward) {
  Tensor x(1, 4, {-1, 0, 2, -3});
  Tensor y(1, 4);
  Relu(x, y);
  EXPECT_FLOAT_EQ(y(0, 0), 0);
  EXPECT_FLOAT_EQ(y(0, 2), 2);
  Tensor gy(1, 4, {1, 1, 1, 1});
  Tensor gx(1, 4);
  ReluBackward(x, gy, gx);
  EXPECT_FLOAT_EQ(gx(0, 0), 0);
  EXPECT_FLOAT_EQ(gx(0, 2), 1);
}

TEST(ActivationTest, ReluBackwardMatchesScalarBitwise) {
  // x covers NaN, -0, +0, a denormal and both signs, at lengths that leave
  // vector remainders; grad_x = x > 0 ? grad_y : +0, in place and not.
  for (const std::int64_t cols : {1, 7, 67, 1000}) {
    Tensor x = RandTensor(5, cols, 40 + cols);
    const float specials[] = {std::nanf(""), -0.0f, 0.0f, 1e-40f, -1e-40f};
    for (std::int64_t i = 0; i < x.numel(); i += 3) x.data()[i] = specials[(i / 3) % 5];
    const Tensor gy = RandTensor(5, cols, 50 + cols);
    Tensor want(5, cols);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      want.data()[i] = x.data()[i] > 0.0f ? gy.data()[i] : 0.0f;
    }
    Tensor out = RandTensor(5, cols, 60 + cols);
    ReluBackward(x, gy, out);
    EXPECT_TRUE(BitEqual(out.data(), want.data(), x.numel())) << "cols=" << cols;
    Tensor in_place = gy;
    ReluBackward(x, in_place, in_place);
    EXPECT_TRUE(BitEqual(in_place.data(), want.data(), x.numel())) << "cols=" << cols;
  }
}

TEST(ActivationTest, LeakyReluForwardBackward) {
  Tensor x(1, 2, {-2, 3});
  Tensor y(1, 2);
  LeakyRelu(x, y, 0.2f);
  EXPECT_FLOAT_EQ(y(0, 0), -0.4f);
  EXPECT_FLOAT_EQ(y(0, 1), 3.0f);
  Tensor gy(1, 2, {1, 1});
  Tensor gx(1, 2);
  LeakyReluBackward(x, gy, gx, 0.2f);
  EXPECT_FLOAT_EQ(gx(0, 0), 0.2f);
  EXPECT_FLOAT_EQ(gx(0, 1), 1.0f);
}

TEST(GatherScatterTest, GatherRows) {
  const Tensor src = RandTensor(6, 3, 4);
  const std::vector<std::int64_t> idx{4, 0, 4};
  Tensor out(3, 3);
  GatherRows(src, idx, out);
  EXPECT_FLOAT_EQ(out(0, 1), src(4, 1));
  EXPECT_FLOAT_EQ(out(1, 2), src(0, 2));
  EXPECT_FLOAT_EQ(out(2, 0), src(4, 0));
  const std::vector<std::int64_t> bad{7};
  Tensor small(1, 3);
  EXPECT_THROW(GatherRows(src, bad, small), Error);
}

TEST(GatherScatterTest, ScatterAddAccumulatesDuplicates) {
  Tensor src(3, 2, {1, 1, 2, 2, 3, 3});
  const std::vector<std::int64_t> idx{0, 1, 0};
  Tensor dst(2, 2);
  ScatterAddRows(src, idx, dst);
  EXPECT_FLOAT_EQ(dst(0, 0), 4);  // 1 + 3
  EXPECT_FLOAT_EQ(dst(1, 0), 2);
}

TEST(GatherScatterTest, ScatterRowsOverwrites) {
  Tensor src(2, 1, {5, 6});
  const std::vector<std::int64_t> idx{1, 0};
  Tensor dst(2, 1, {9, 9});
  ScatterRows(src, idx, dst);
  EXPECT_FLOAT_EQ(dst(0, 0), 6);
  EXPECT_FLOAT_EQ(dst(1, 0), 5);
}

TEST(LossTest, PerfectPredictionLowLoss) {
  Tensor logits(2, 3);
  logits(0, 1) = 20.0f;
  logits(1, 2) = 20.0f;
  const std::vector<std::int64_t> labels{1, 2};
  std::int64_t correct = 0;
  const float loss = SoftmaxCrossEntropy(logits, labels, nullptr, &correct);
  EXPECT_LT(loss, 1e-3f);
  EXPECT_EQ(correct, 2);
}

TEST(LossTest, UniformLogitsGiveLogC) {
  Tensor logits(4, 8);
  const std::vector<std::int64_t> labels{0, 1, 2, 3};
  const float loss = SoftmaxCrossEntropy(logits, labels, nullptr, nullptr);
  EXPECT_NEAR(loss, std::log(8.0f), 1e-5f);
}

TEST(LossTest, GradientMatchesFiniteDifference) {
  Tensor logits = RandTensor(3, 5, 6);
  const std::vector<std::int64_t> labels{2, 0, 4};
  Tensor grad(3, 5);
  SoftmaxCrossEntropy(logits, labels, &grad, nullptr);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      Tensor lp = logits, lm = logits;
      lp(i, j) += eps;
      lm(i, j) -= eps;
      const float fp = SoftmaxCrossEntropy(lp, labels, nullptr, nullptr);
      const float fm = SoftmaxCrossEntropy(lm, labels, nullptr, nullptr);
      EXPECT_NEAR(grad(i, j), (fp - fm) / (2 * eps), 2e-3f)
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST(LossTest, InvalidLabelThrows) {
  Tensor logits(1, 3);
  const std::vector<std::int64_t> labels{3};
  EXPECT_THROW(SoftmaxCrossEntropy(logits, labels, nullptr, nullptr), Error);
}

TEST(ReductionTest, MaxAbsDiffAndSumSquares) {
  Tensor a(1, 3, {1, 2, 3});
  Tensor b(1, 3, {1, 2.5f, 3});
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 0.5f);
  EXPECT_DOUBLE_EQ(SumSquares(a), 14.0);
}

TEST(InitTest, XavierRangeAndDeterminism) {
  Tensor w1(64, 64), w2(64, 64);
  Rng r1(42), r2(42);
  XavierUniform(w1, r1);
  XavierUniform(w2, r2);
  EXPECT_EQ(MaxAbsDiff(w1, w2), 0.0f);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (std::int64_t i = 0; i < w1.numel(); ++i) {
    EXPECT_LE(std::fabs(w1.data()[i]), bound);
  }
}

}  // namespace
}  // namespace apt
