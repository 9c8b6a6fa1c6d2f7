// Node feature parallel (P3-style): input features and the layer-1 weight
// are co-partitioned by dimension; every device receives every device's
// layer-1 computation graph (AllBroadcast), computes partial layer-1
// outputs from its dimension slice, and a SparseAllreduce merges them.
//
// Mean aggregation commutes with the linear projection, so
//   sum_g (agg(H[:, g]) W[g, :]) == agg(H) W,
// which is what makes the NFP result bit-for-bit semantically equal to GDP.
//
// GAT path: partial *projections* z are allreduced for all layer-1 source
// nodes (attention itself cannot be dimension-partitioned because softmax
// needs complete logits); backward broadcasts grad_z so each device can form
// its weight-slice gradient. This is the "extra communication" and
// "intermediate tensors exceed GPU memory" behaviour of Fig 10.
//
// Pipelined execution (EngineOptions::pipeline_depth > 1): the graph
// AllBroadcast, the dimension-slice feature gathers (kLoad) and the partial
// allreduce / grad broadcast all land on the per-device comm stream, so NFP
// — the comm-heaviest strategy — gains the most from overlap; only the
// projection/aggregation compute stays on the compute stream.
#include "engine/exec_common.h"
#include "engine/executor.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace apt {

namespace {

/// Row range [lo, hi) of the feature dimension owned by dev.
std::pair<std::int64_t, std::int64_t> DimSlice(std::int64_t dim, std::int32_t num_devices,
                                               DeviceId dev) {
  const std::int64_t base = dim / num_devices;
  const std::int64_t extra = dim % num_devices;
  const std::int64_t lo = dev * base + std::min<std::int64_t>(dev, extra);
  const std::int64_t hi = lo + base + (dev < extra ? 1 : 0);
  return {lo, hi};
}

/// Adds `slice` into rows [lo, hi) of grad.
void AddRowSlice(Tensor& grad, std::int64_t lo, const Tensor& slice) {
  for (std::int64_t r = 0; r < slice.rows(); ++r) {
    float* dst = grad.row(lo + r);
    const float* src = slice.row(r);
    for (std::int64_t j = 0; j < slice.cols(); ++j) dst[j] += src[j];
  }
}

class NfpExecutor final : public StrategyExecutor {
 public:
  using StrategyExecutor::StrategyExecutor;

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    if (ctx_->model_kind() == ModelKind::kSage) return StepSage(batches);
    return StepGat(batches);
  }

 private:
  StepStats StepSage(std::vector<DeviceBatch>& batches);
  StepStats StepGat(std::vector<DeviceBatch>& batches);
};

StepStats NfpExecutor::StepSage(std::vector<DeviceBatch>& batches) {
  const std::int32_t c = ctx_->num_devices();
  const std::int64_t d = ctx_->feature_dim();
  std::int64_t total_seeds = 0;
  for (const auto& b : batches) total_seeds += static_cast<std::int64_t>(b.labels.size());
  StepStats agg;
  agg.num_seeds = total_seeds;

  // Shuffle: broadcast every device's layer-1 computation graph.
  obs::StageSpan stage("shuffle", "nfp");
  std::vector<Block> block0s;
  block0s.reserve(static_cast<std::size_t>(c));
  for (const auto& b : batches) block0s.push_back(b.sample.blocks[0]);
  const std::vector<Block> all0 = ctx_->comm->AllBroadcastObjects(
      std::move(block0s), [](const Block& b) { return b.bytes(); }, Phase::kSample);

  stage.Next("execute");
  // Execute: each device computes dimension-sliced partials for ALL graphs.
  // partials[o][g]: device g's contribution to origin o's layer-1 output.
  std::vector<std::vector<Tensor>> partials(
      static_cast<std::size_t>(c), std::vector<Tensor>(static_cast<std::size_t>(c)));
  // Saved per (g, o) for the weight-gradient pass. The dst rows are copied
  // out compactly so that each device's h_all is freed after its forward
  // (see SNP's StepSage).
  std::vector<std::vector<Tensor>> saved_agg(partials.size(),
                                             std::vector<Tensor>(partials.size()));
  std::vector<std::vector<Tensor>> saved_self(partials.size(),
                                              std::vector<Tensor>(partials.size()));
  for (DeviceId g = 0; g < c; ++g) {
    const auto [lo, hi] = DimSlice(d, c, g);
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
    const ConstMatrixRef w_neigh = RowRange(sage.w_neigh().value, lo, hi - lo);
    const ConstMatrixRef w_self = RowRange(sage.w_self().value, lo, hi - lo);
    // One batched dimension-slice gather per device per step.
    std::vector<NodeId> gather_nodes;
    std::vector<std::int64_t> base(static_cast<std::size_t>(c), 0);
    for (DeviceId o = 0; o < c; ++o) {
      base[static_cast<std::size_t>(o)] = static_cast<std::int64_t>(gather_nodes.size());
      const Block& b = all0[static_cast<std::size_t>(o)];
      gather_nodes.insert(gather_nodes.end(), b.src_nodes.begin(), b.src_nodes.end());
    }
    Tensor h_all = Tensor::Uninitialized(static_cast<std::int64_t>(gather_nodes.size()), hi - lo);
    if (!gather_nodes.empty()) ctx_->store->Gather(g, gather_nodes, lo, hi, h_all);
    std::int64_t transient = h_all.bytes();
    double flops = 0.0;
    for (DeviceId o = 0; o < c; ++o) {
      const Block& b = all0[static_cast<std::size_t>(o)];
      if (b.num_dst == 0) continue;
      // Origin o's source rows, dst prefix first: a row range of h_all.
      const std::int64_t row0 = base[static_cast<std::size_t>(o)];
      Tensor aggd = Tensor::Uninitialized(b.num_dst, hi - lo);
      SpmmMean(b.csr(), RowRange(h_all, row0, b.num_src()), aggd);
      Tensor self = Tensor::Uninitialized(b.num_dst, hi - lo);
      std::copy_n(h_all.row(row0), b.num_dst * (hi - lo), self.data());
      Tensor part = Tensor::Uninitialized(b.num_dst, sage.out_dim());
      Matmul(aggd, w_neigh, part);
      Matmul(self, w_self, part, 1.0f, 1.0f);
      flops += 4.0 * static_cast<double>(b.num_dst) * (hi - lo) * sage.out_dim() +
               2.0 * static_cast<double>(b.num_edges()) * (hi - lo);
      transient += part.bytes();
      partials[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)] = std::move(part);
      saved_agg[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)] = std::move(aggd);
      saved_self[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)] = std::move(self);
    }
    ctx_->sim->ChargeCompute(g, flops);
    ctx_->sim->NoteTransient(g, transient);
  }

  stage.Next("reshuffle");
  // Reshuffle (forward): SparseAllreduce per origin's destination set.
  std::vector<Tensor> raw0(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    if (all0[static_cast<std::size_t>(o)].num_dst == 0) continue;
    auto& parts = partials[static_cast<std::size_t>(o)];
    std::vector<Tensor*> ptrs;
    for (auto& t : parts) ptrs.push_back(&t);
    ctx_->comm->AllReduceSum(ptrs, Phase::kTrain);
    raw0[static_cast<std::size_t>(o)] = std::move(parts[0]);  // the reduced sum
  }

  stage.Next("execute");
  // Local remainder per origin + loss + backward to the layer-1 boundary.
  std::vector<Tensor> grad_raw0(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
    if (batch.labels.empty()) continue;
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(o).layer(0));
    Tensor& r0 = raw0[static_cast<std::size_t>(o)];
    AddBiasRows(r0, sage.bias().value);  // bias applied once, post-reduce
    const auto& blocks = batch.sample.blocks;
    ModelTape tape;
    const Tensor logits = ctx_->model(o).ForwardFrom(1, blocks, std::move(r0), &tape);
    Tensor grad_logits;
    const StepStats s = SeedLossAndGrad(batch, logits, total_seeds, grad_logits);
    grad_raw0[static_cast<std::size_t>(o)] =
        ctx_->model(o).BackwardTo(1, blocks, tape, grad_logits);
    Tensor gb(1, sage.out_dim());
    BiasGradRows(grad_raw0[static_cast<std::size_t>(o)], gb);
    Axpy(1.0f, gb, sage.bias().grad);
    ChargeStepCompute(*ctx_, o, blocks, 1);
    agg.loss += s.loss;
    agg.correct += s.correct;
  }

  stage.Next("reshuffle");
  // Backward shuffle: broadcast layer-1 output gradients so every device can
  // form the gradient of its weight slice.
  const std::vector<Tensor> all_grad =
      ctx_->comm->AllBroadcastTensors(grad_raw0, Phase::kTrain);

  stage.Next("execute");
  for (DeviceId g = 0; g < c; ++g) {
    const auto [lo, hi] = DimSlice(d, c, g);
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
    double flops = 0.0;
    for (DeviceId o = 0; o < c; ++o) {
      const Tensor& go = all_grad[static_cast<std::size_t>(o)];
      if (go.rows() == 0) continue;
      const Tensor& aggd = saved_agg[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      const Tensor& self = saved_self[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      Tensor gw = Tensor::Uninitialized(hi - lo, sage.out_dim());
      MatmulTN(aggd, go, gw);
      AddRowSlice(sage.w_neigh().grad, lo, gw);
      MatmulTN(self, go, gw);
      AddRowSlice(sage.w_self().grad, lo, gw);
      flops += 4.0 * static_cast<double>(go.rows()) * (hi - lo) * sage.out_dim();
    }
    ctx_->sim->ChargeCompute(g, flops);
  }
  return agg;
}

StepStats NfpExecutor::StepGat(std::vector<DeviceBatch>& batches) {
  const std::int32_t c = ctx_->num_devices();
  const std::int64_t d = ctx_->feature_dim();
  std::int64_t total_seeds = 0;
  for (const auto& b : batches) total_seeds += static_cast<std::int64_t>(b.labels.size());
  StepStats agg;
  agg.num_seeds = total_seeds;

  obs::StageSpan stage("shuffle", "nfp");
  std::vector<Block> block0s;
  for (const auto& b : batches) block0s.push_back(b.sample.blocks[0]);
  const std::vector<Block> all0 = ctx_->comm->AllBroadcastObjects(
      std::move(block0s), [](const Block& b) { return b.bytes(); }, Phase::kSample);

  stage.Next("execute");
  // Partial projections z from each dimension slice, for all graphs.
  std::vector<std::vector<Tensor>> z_parts(
      static_cast<std::size_t>(c), std::vector<Tensor>(static_cast<std::size_t>(c)));
  // Saved for the weight-gradient pass: each device's gathered slice rows
  // and where each origin's rows start in them. The pass reads every row,
  // so keeping h_all costs no memory beyond the rows themselves.
  std::vector<Tensor> saved_h_all(z_parts.size());
  std::vector<std::vector<std::int64_t>> saved_base(z_parts.size());
  for (DeviceId g = 0; g < c; ++g) {
    const auto [lo, hi] = DimSlice(d, c, g);
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(g).layer(0));
    const ConstMatrixRef w = RowRange(gat.w().value, lo, hi - lo);
    // One batched dimension-slice gather per device per step.
    std::vector<NodeId> gather_nodes;
    std::vector<std::int64_t> base(static_cast<std::size_t>(c), 0);
    for (DeviceId o = 0; o < c; ++o) {
      base[static_cast<std::size_t>(o)] = static_cast<std::int64_t>(gather_nodes.size());
      const Block& b = all0[static_cast<std::size_t>(o)];
      gather_nodes.insert(gather_nodes.end(), b.src_nodes.begin(), b.src_nodes.end());
    }
    Tensor h_all = Tensor::Uninitialized(static_cast<std::int64_t>(gather_nodes.size()), hi - lo);
    if (!gather_nodes.empty()) ctx_->store->Gather(g, gather_nodes, lo, hi, h_all);
    std::int64_t transient = h_all.bytes();
    double flops = 0.0;
    for (DeviceId o = 0; o < c; ++o) {
      const Block& b = all0[static_cast<std::size_t>(o)];
      if (b.num_dst == 0) continue;
      Tensor z = Tensor::Uninitialized(b.num_src(), gat.out_dim());
      Matmul(RowRange(h_all, base[static_cast<std::size_t>(o)], b.num_src()), w, z);
      flops += 2.0 * static_cast<double>(b.num_src()) * (hi - lo) * gat.out_dim();
      transient += z.bytes();
      z_parts[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)] = std::move(z);
    }
    ctx_->sim->ChargeCompute(g, flops);
    // Every device holds z for EVERY graph's full source set: the memory
    // blowup the paper observes for NFP + attention at large hidden dims.
    ctx_->sim->NoteTransient(g, transient);
    saved_h_all[static_cast<std::size_t>(g)] = std::move(h_all);
    saved_base[static_cast<std::size_t>(g)] = std::move(base);
  }

  stage.Next("reshuffle");
  // Allreduce partial projections per origin -> complete z everywhere.
  std::vector<Tensor> z_full(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    auto& parts = z_parts[static_cast<std::size_t>(o)];
    if (all0[static_cast<std::size_t>(o)].num_dst == 0) continue;
    std::vector<Tensor*> ptrs;
    for (auto& t : parts) ptrs.push_back(&t);
    ctx_->comm->AllReduceSum(ptrs, Phase::kTrain);
    z_full[static_cast<std::size_t>(o)] = std::move(parts[0]);
  }

  stage.Next("execute");
  // Attention + remainder at each origin.
  std::vector<Tensor> grad_z(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
    if (batch.labels.empty()) continue;
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(o).layer(0));
    const Block& b = batch.sample.blocks[0];
    std::unique_ptr<GatAttentionContext> attn_ctx;
    Tensor raw0 = gat.AttentionForward(
        b.csr(), b.num_dst, std::move(z_full[static_cast<std::size_t>(o)]), &attn_ctx);
    const auto& blocks = batch.sample.blocks;
    ModelTape tape;
    const Tensor logits = ctx_->model(o).ForwardFrom(1, blocks, std::move(raw0), &tape);
    Tensor grad_logits;
    const StepStats s = SeedLossAndGrad(batch, logits, total_seeds, grad_logits);
    const Tensor grad_raw0 = ctx_->model(o).BackwardTo(1, blocks, tape, grad_logits);
    grad_z[static_cast<std::size_t>(o)] =
        gat.AttentionBackward(b.csr(), b.num_dst, *attn_ctx, grad_raw0);
    ChargeStepCompute(*ctx_, o, blocks, 1);
    ctx_->sim->ChargeCompute(
        o, gat.ForwardFlops(b.num_src(), b.num_dst, b.num_edges()));
    agg.loss += s.loss;
    agg.correct += s.correct;
  }

  stage.Next("reshuffle");
  // Broadcast grad_z so each device forms its weight-slice gradient.
  const std::vector<Tensor> all_grad_z =
      ctx_->comm->AllBroadcastTensors(grad_z, Phase::kTrain);
  stage.Next("execute");
  for (DeviceId g = 0; g < c; ++g) {
    const auto [lo, hi] = DimSlice(d, c, g);
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(g).layer(0));
    double flops = 0.0;
    for (DeviceId o = 0; o < c; ++o) {
      const Tensor& gz = all_grad_z[static_cast<std::size_t>(o)];
      if (gz.rows() == 0) continue;
      const ConstMatrixRef h =
          RowRange(saved_h_all[static_cast<std::size_t>(g)],
                   saved_base[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)],
                   all0[static_cast<std::size_t>(o)].num_src());
      Tensor gw = Tensor::Uninitialized(hi - lo, gat.out_dim());
      MatmulTN(h, gz, gw);
      AddRowSlice(gat.w().grad, lo, gw);
      flops += 2.0 * static_cast<double>(gz.rows()) * (hi - lo) * gat.out_dim();
    }
    ctx_->sim->ChargeCompute(g, flops);
  }
  return agg;
}

}  // namespace

std::unique_ptr<StrategyExecutor> MakeNfpExecutor(EngineCtx& ctx) {
  return std::make_unique<NfpExecutor>(ctx);
}

}  // namespace apt
