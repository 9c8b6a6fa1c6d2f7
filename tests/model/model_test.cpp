// Model tests: layer gradient checks against finite differences, model
// plumbing, and optimizers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "model/gat_layer.h"
#include "model/gnn_model.h"
#include "model/optimizer.h"
#include "model/sage_layer.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace apt {
namespace {

// dst0 <- {0, 1}; dst1 <- {1, 2}; 2 dst, 3 src (dst prefix rows 0..1).
struct TinyBlock {
  std::vector<std::int64_t> indptr{0, 2, 4};
  std::vector<std::int64_t> col{0, 1, 1, 2};
  CsrView csr() const { return {indptr, col}; }
  std::int64_t num_dst = 2;
  std::int64_t num_src = 3;
};

Tensor RandTensor(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Tensor t(r, c);
  Rng rng(seed);
  UniformInit(t, rng, -1.0f, 1.0f);
  return t;
}

double Inner(const Tensor& a, const Tensor& b) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += a.data()[i] * b.data()[i];
  return acc;
}

/// Central-difference check of d<out, gy>/d param[idx] for a layer.
template <typename LayerT>
void CheckParamGrad(LayerT& layer, Param& param, const TinyBlock& blk,
                    const Tensor& input, const Tensor& gy, float tol) {
  std::unique_ptr<LayerContext> ctx;
  layer.Forward(blk.csr(), blk.num_dst, input, &ctx);
  for (Param* p : [&] {
         std::vector<Param*> ps;
         layer.CollectParams(ps);
         return ps;
       }()) {
    p->ZeroGrad();
  }
  layer.Backward(blk.csr(), blk.num_dst, *ctx, gy, InputGrad::kCompute);
  const float eps = 1e-2f;
  Rng pick(31);
  for (int trial = 0; trial < 6; ++trial) {
    const auto idx =
        static_cast<std::int64_t>(pick.NextBelow(static_cast<std::uint64_t>(param.value.numel())));
    const float orig = param.value.data()[idx];
    param.value.data()[idx] = orig + eps;
    const Tensor op = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    param.value.data()[idx] = orig - eps;
    const Tensor om = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    param.value.data()[idx] = orig;
    const double fd = (Inner(op, gy) - Inner(om, gy)) / (2 * eps);
    EXPECT_NEAR(param.grad.data()[idx], fd, tol)
        << param.name << " index " << idx;
  }
}

TEST(SageLayerTest, ForwardMatchesManual) {
  Rng rng(1);
  SageLayer layer(2, 2, rng);
  // Identity-ish weights for a hand check.
  layer.w_self().value = Tensor(2, 2, {1, 0, 0, 1});
  layer.w_neigh().value = Tensor(2, 2, {2, 0, 0, 2});
  layer.bias().value = Tensor(1, 2, {0.5f, -0.5f});
  TinyBlock blk;
  Tensor input(3, 2, {1, 2, 3, 4, 5, 6});
  const Tensor out = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
  // dst0: self (1,2) + 2*mean((1,2),(3,4)) + bias = (1,2)+(4,6)+(0.5,-0.5)
  EXPECT_FLOAT_EQ(out(0, 0), 5.5f);
  EXPECT_FLOAT_EQ(out(0, 1), 7.5f);
  // dst1: self (3,4) + 2*mean((3,4),(5,6)) + bias = (3,4)+(8,10)+(0.5,-0.5)
  EXPECT_FLOAT_EQ(out(1, 0), 11.5f);
  EXPECT_FLOAT_EQ(out(1, 1), 13.5f);
}

TEST(SageLayerTest, ParamGradsMatchFiniteDifference) {
  Rng rng(2);
  SageLayer layer(3, 2, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 3, 4);
  const Tensor gy = RandTensor(2, 2, 5);
  CheckParamGrad(layer, layer.w_self(), blk, input, gy, 5e-3f);
  CheckParamGrad(layer, layer.w_neigh(), blk, input, gy, 5e-3f);
  CheckParamGrad(layer, layer.bias(), blk, input, gy, 5e-3f);
}

TEST(SageLayerTest, InputGradMatchesFiniteDifference) {
  Rng rng(3);
  SageLayer layer(3, 2, rng);
  TinyBlock blk;
  Tensor input = RandTensor(3, 3, 6);
  const Tensor gy = RandTensor(2, 2, 7);
  std::unique_ptr<LayerContext> ctx;
  layer.Forward(blk.csr(), blk.num_dst, input, &ctx);
  const Tensor gin =
      layer.Backward(blk.csr(), blk.num_dst, *ctx, gy, InputGrad::kCompute);
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const float orig = input.data()[i];
    input.data()[i] = orig + eps;
    const Tensor op = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    input.data()[i] = orig - eps;
    const Tensor om = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    input.data()[i] = orig;
    EXPECT_NEAR(gin.data()[i], (Inner(op, gy) - Inner(om, gy)) / (2 * eps), 5e-3f);
  }
}

TEST(GatLayerTest, OutputShapeConcatenatesHeads) {
  Rng rng(8);
  GatLayer layer(4, 3, 2, rng);
  EXPECT_EQ(layer.out_dim(), 6);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 4, 9);
  const Tensor out = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 6);
}

TEST(GatLayerTest, ParamGradsMatchFiniteDifference) {
  Rng rng(10);
  GatLayer layer(3, 2, 2, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 3, 11);
  const Tensor gy = RandTensor(2, 4, 12);
  std::vector<Param*> params;
  layer.CollectParams(params);
  for (Param* p : params) {
    CheckParamGrad(layer, *p, blk, input, gy, 1e-2f);
  }
}

TEST(GatLayerTest, InputGradMatchesFiniteDifference) {
  Rng rng(13);
  GatLayer layer(3, 2, 1, rng);
  TinyBlock blk;
  Tensor input = RandTensor(3, 3, 14);
  const Tensor gy = RandTensor(2, 2, 15);
  std::unique_ptr<LayerContext> ctx;
  layer.Forward(blk.csr(), blk.num_dst, input, &ctx);
  const Tensor gin =
      layer.Backward(blk.csr(), blk.num_dst, *ctx, gy, InputGrad::kCompute);
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const float orig = input.data()[i];
    input.data()[i] = orig + eps;
    const Tensor op = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    input.data()[i] = orig - eps;
    const Tensor om = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
    input.data()[i] = orig;
    EXPECT_NEAR(gin.data()[i], (Inner(op, gy) - Inner(om, gy)) / (2 * eps), 2e-2f);
  }
}

TEST(GatLayerTest, SplitPathMatchesMonolithic) {
  // Project + AttentionForward must equal Forward (the engine relies on
  // composing them across a communication boundary).
  Rng rng(16);
  GatLayer layer(4, 3, 2, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 4, 17);
  const Tensor whole = layer.Forward(blk.csr(), blk.num_dst, input, nullptr);
  const Tensor z = layer.Project(input);
  const Tensor split = layer.AttentionForward(blk.csr(), blk.num_dst, z, nullptr);
  EXPECT_LT(MaxAbsDiff(whole, split), 1e-6f);
}

TEST(GatLayerTest, AttentionWeightsNormalized) {
  Rng rng(18);
  GatLayer layer(3, 2, 2, rng);
  TinyBlock blk;
  const Tensor input = RandTensor(3, 3, 19);
  const Tensor z = layer.Project(input);
  std::unique_ptr<GatAttentionContext> ctx;
  layer.AttentionForward(blk.csr(), blk.num_dst, z, &ctx);
  for (const auto& alpha : ctx->alpha) {
    EXPECT_NEAR(alpha[0] + alpha[1], 1.0f, 1e-5f);  // dst0 edges
    EXPECT_NEAR(alpha[2] + alpha[3], 1.0f, 1e-5f);  // dst1 edges
  }
}

// A random block with ragged degrees, large enough that the layer GEMMs run
// full register tiles as well as their row and column rims.
struct RandomBlock {
  std::vector<std::int64_t> indptr{0};
  std::vector<std::int64_t> col;
  std::int64_t num_dst = 37;
  std::int64_t num_src = 101;
  explicit RandomBlock(std::uint64_t seed) {
    Rng rng(seed);
    for (std::int64_t d = 0; d < num_dst; ++d) {
      const std::uint64_t deg = 1 + rng.NextBelow(6);
      for (std::uint64_t e = 0; e < deg; ++e) {
        col.push_back(static_cast<std::int64_t>(
            rng.NextBelow(static_cast<std::uint64_t>(num_src))));
      }
      indptr.push_back(static_cast<std::int64_t>(col.size()));
    }
  }
  CsrView csr() const { return {indptr, col}; }
};

/// Parameter grads after one Forward + Backward(input_grad), starting from
/// non-zero grads so accumulation into existing values is covered too.
std::vector<Tensor> ParamGradsAfterBackward(GnnLayer& layer, const RandomBlock& blk,
                                            const Tensor& input, const Tensor& gy,
                                            InputGrad input_grad) {
  std::vector<Param*> params;
  layer.CollectParams(params);
  for (Param* p : params) p->grad.Fill(0.25f);
  std::unique_ptr<LayerContext> ctx;
  layer.Forward(blk.csr(), blk.num_dst, input, &ctx);
  const Tensor gin = layer.Backward(blk.csr(), blk.num_dst, *ctx, gy, input_grad);
  if (input_grad == InputGrad::kSkip) {
    EXPECT_TRUE(gin.empty());
  } else {
    EXPECT_EQ(gin.rows(), blk.num_src);
    EXPECT_EQ(gin.cols(), layer.in_dim());
  }
  std::vector<Tensor> grads;
  for (Param* p : params) grads.push_back(p->grad);
  return grads;
}

void ExpectParamOnlyBackwardBitIdentical(GnnLayer& layer, std::uint64_t seed) {
  const RandomBlock blk(seed);
  const Tensor input = RandTensor(blk.num_src, layer.in_dim(), seed + 1);
  const Tensor gy = RandTensor(blk.num_dst, layer.out_dim(), seed + 2);
  const std::vector<Tensor> full =
      ParamGradsAfterBackward(layer, blk, input, gy, InputGrad::kCompute);
  const std::vector<Tensor> params_only =
      ParamGradsAfterBackward(layer, blk, input, gy, InputGrad::kSkip);
  std::vector<Param*> params;
  layer.CollectParams(params);
  ASSERT_EQ(full.size(), params_only.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_TRUE(full[i].SameShape(params_only[i])) << params[i]->name;
    EXPECT_EQ(std::memcmp(full[i].data(), params_only[i].data(),
                          static_cast<std::size_t>(full[i].bytes())),
              0)
        << params[i]->name;
  }
}

TEST(LayerBackwardTest, SageParamOnlyBackwardMatchesFullBitwise) {
  Rng rng(40);
  SageLayer layer(45, 19, rng);
  ExpectParamOnlyBackwardBitIdentical(layer, 41);
}

TEST(LayerBackwardTest, GatParamOnlyBackwardMatchesFullBitwise) {
  Rng rng(42);
  GatLayer layer(45, 5, 3, rng);
  ExpectParamOnlyBackwardBitIdentical(layer, 43);
}

TEST(GnnModelTest, DimensionChaining) {
  ModelConfig cfg;
  cfg.kind = ModelKind::kSage;
  cfg.num_layers = 3;
  cfg.input_dim = 24;
  cfg.hidden_dim = 16;
  cfg.num_classes = 5;
  GnnModel m(cfg);
  EXPECT_EQ(m.num_layers(), 3);
  EXPECT_EQ(m.layer(0).in_dim(), 24);
  EXPECT_EQ(m.layer(0).out_dim(), 16);
  EXPECT_EQ(m.layer(2).out_dim(), 5);
}

TEST(GnnModelTest, GatHeadsConcatAcrossLayers) {
  ModelConfig cfg;
  cfg.kind = ModelKind::kGat;
  cfg.num_layers = 3;
  cfg.input_dim = 12;
  cfg.hidden_dim = 8;
  cfg.gat_heads = 4;
  cfg.num_classes = 7;
  GnnModel m(cfg);
  EXPECT_EQ(m.layer(0).out_dim(), 32);  // 4 heads x 8
  EXPECT_EQ(m.layer(1).in_dim(), 32);
  EXPECT_EQ(m.layer(2).out_dim(), 7);  // final layer single head
}

TEST(GnnModelTest, IdenticalSeedsGiveIdenticalReplicas) {
  ModelConfig cfg;
  cfg.kind = ModelKind::kSage;
  cfg.num_layers = 2;
  cfg.input_dim = 8;
  cfg.hidden_dim = 4;
  cfg.num_classes = 3;
  GnnModel a(cfg), b(cfg);
  const auto pa = a.Params();
  const auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(pa[i]->value, pb[i]->value), 0.0f);
  }
  EXPECT_GT(a.ParamBytes(), 0);
}

TEST(GnnModelTest, RejectsInvalidConfigs) {
  ModelConfig cfg;
  cfg.num_layers = 0;
  cfg.input_dim = 8;
  cfg.num_classes = 3;
  EXPECT_THROW(GnnModel{cfg}, Error);
  cfg.num_layers = 2;
  cfg.input_dim = 0;
  EXPECT_THROW(GnnModel{cfg}, Error);
}

/// A random Block (src_nodes 0..num_src-1, dst prefix first) with ragged
/// degrees.
Block RandomStackBlock(std::int64_t num_src, std::int64_t num_dst, std::uint64_t seed) {
  Block b;
  for (std::int64_t i = 0; i < num_src; ++i) b.src_nodes.push_back(i);
  b.num_dst = num_dst;
  b.indptr.push_back(0);
  Rng rng(seed);
  for (std::int64_t d = 0; d < num_dst; ++d) {
    const std::uint64_t deg = 1 + rng.NextBelow(5);
    for (std::uint64_t e = 0; e < deg; ++e) {
      b.col.push_back(static_cast<std::int64_t>(
          rng.NextBelow(static_cast<std::uint64_t>(num_src))));
    }
    b.indptr.push_back(static_cast<std::int64_t>(b.col.size()));
  }
  return b;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.bytes())) == 0;
}

/// ForwardFrom consumes its input: a moved argument and an lvalue (copied
/// at the call site) must give the same logits and, through the tape, the
/// same parameter and boundary gradients, bit for bit.
void ExpectMovedInputBitwise(ModelKind kind) {
  ModelConfig cfg;
  cfg.kind = kind;
  cfg.num_layers = 3;
  cfg.input_dim = 45;
  cfg.hidden_dim = 19;
  cfg.gat_heads = 2;
  cfg.num_classes = 5;
  const std::vector<Block> blocks{RandomStackBlock(101, 37, 1),
                                  RandomStackBlock(37, 13, 2),
                                  RandomStackBlock(13, 6, 3)};
  const Tensor gy = RandTensor(6, cfg.num_classes, 4);
  for (int first_layer : {0, 1}) {
    for (bool with_tape : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "first_layer " << first_layer << " tape "
                                        << with_tape);
      GnnModel by_move(cfg);
      GnnModel by_copy(cfg);
      const std::int64_t in_dim =
          first_layer == 0 ? cfg.input_dim : by_move.layer(0).out_dim();
      const Tensor input = RandTensor(
          blocks[static_cast<std::size_t>(first_layer)].num_src(), in_dim, 5);
      ModelTape tape_move;
      ModelTape tape_copy;
      Tensor consumed = input;
      const Tensor logits_move = by_move.ForwardFrom(
          first_layer, blocks, std::move(consumed), with_tape ? &tape_move : nullptr);
      EXPECT_TRUE(consumed.empty());  // NOLINT(bugprone-use-after-move)
      const Tensor logits_copy = by_copy.ForwardFrom(
          first_layer, blocks, input, with_tape ? &tape_copy : nullptr);
      ASSERT_EQ(logits_move.rows(), 6);
      EXPECT_TRUE(BitEqual(logits_move, logits_copy));
      if (!with_tape) continue;

      by_move.ZeroGrad();
      by_copy.ZeroGrad();
      const Tensor grad_move = by_move.BackwardTo(first_layer, blocks, tape_move, gy);
      const Tensor grad_copy = by_copy.BackwardTo(first_layer, blocks, tape_copy, gy);
      EXPECT_TRUE(BitEqual(grad_move, grad_copy));
      if (first_layer == 1) {
        EXPECT_TRUE(grad_move.SameShape(input));
      }
      const auto pm = by_move.Params();
      const auto pc = by_copy.Params();
      ASSERT_EQ(pm.size(), pc.size());
      for (std::size_t i = 0; i < pm.size(); ++i) {
        EXPECT_TRUE(BitEqual(pm[i]->grad, pc[i]->grad)) << pm[i]->name;
      }
    }
  }
}

TEST(ModelTest, ForwardFromMovedInputBitwise) {
  for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
    SCOPED_TRACE(ToString(kind));
    ExpectMovedInputBitwise(kind);
  }
}

TEST(OptimizerTest, SgdStepsAgainstGradient) {
  Param p("w", 1, 2);
  p.value = Tensor(1, 2, {1.0f, -1.0f});
  p.grad = Tensor(1, 2, {0.5f, -0.5f});
  Sgd opt(0.1f);
  opt.Step({&p});
  EXPECT_FLOAT_EQ(p.value(0, 0), 0.95f);
  EXPECT_FLOAT_EQ(p.value(0, 1), -0.95f);
}

TEST(OptimizerTest, SgdWeightDecay) {
  Param p("w", 1, 1);
  p.value = Tensor(1, 1, {2.0f});
  p.grad = Tensor(1, 1, {0.0f});
  Sgd opt(0.1f, /*weight_decay=*/0.5f);
  opt.Step({&p});
  EXPECT_FLOAT_EQ(p.value(0, 0), 2.0f - 0.1f * 0.5f * 2.0f);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // Minimize (x - 3)^2 with Adam; grad = 2(x-3).
  Param p("x", 1, 1);
  p.value = Tensor(1, 1, {0.0f});
  Adam opt(0.1f);
  for (int i = 0; i < 300; ++i) {
    p.grad = Tensor(1, 1, {2.0f * (p.value(0, 0) - 3.0f)});
    opt.Step({&p});
  }
  EXPECT_NEAR(p.value(0, 0), 3.0f, 0.05f);
}

TEST(OptimizerTest, AdamFirstStepIsLrSized) {
  Param p("x", 1, 1);
  p.value = Tensor(1, 1, {1.0f});
  p.grad = Tensor(1, 1, {123.0f});
  Adam opt(0.01f);
  opt.Step({&p});
  // Bias-corrected first step is ~lr regardless of gradient scale.
  EXPECT_NEAR(p.value(0, 0), 1.0f - 0.01f, 1e-4f);
}

}  // namespace
}  // namespace apt
