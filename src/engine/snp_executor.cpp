// Source node parallel (GSplit-style): layer-1 is partitioned by *source*
// node. A destination node whose sampled sources live on a remote device
// gets a virtual node there; the remote device projects and partially
// aggregates its local sources' contributions and a GroupReduce merges the
// partials at the requesting device.
//
// SAGE math: mean_{u in N(d)} h_u W = sum_g [ (1/deg_d) sum_{u local to g} h_u W ],
// so partials scaled by the destination's *total* degree sum exactly to the
// GDP result. The self term W_self h_d is computed by d's owner (the device
// whose partition holds d) and folded into that device's partial.
//
// GAT path: attention needs each destination's complete source view, so the
// owners instead ship *projected source embeddings* (z rows) to the
// requesting device, which runs attention locally — the paper's "extra
// communication for attention-based models".
//
// Pipelined execution (EngineOptions::pipeline_depth > 1): the virtual-node
// all-to-all, the owners' source gathers (kLoad) and the partial GroupReduce
// ride the per-device comm stream and overlap with the projection compute of
// the neighbouring micro-batches.
#include "engine/exec_common.h"
#include "engine/executor.h"
#include "engine/permute.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace apt {

namespace {

class SnpExecutor final : public StrategyExecutor {
 public:
  explicit SnpExecutor(EngineCtx& ctx)
      : StrategyExecutor(ctx),
        route_{*ctx.partition, &ctx.sim->cluster(), ctx.opts.hybrid_intra_machine} {}

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    if (ctx_->model_kind() == ModelKind::kSage) return StepSage(batches);
    return StepGat(batches);
  }

 private:
  StepStats StepSage(std::vector<DeviceBatch>& batches);
  StepStats StepGat(std::vector<DeviceBatch>& batches);

  SnpRoute route_;
};

StepStats SnpExecutor::StepSage(std::vector<DeviceBatch>& batches) {
  const std::int32_t c = ctx_->num_devices();
  std::int64_t total_seeds = 0;
  for (const auto& b : batches) total_seeds += static_cast<std::int64_t>(b.labels.size());
  StepStats agg;
  agg.num_seeds = total_seeds;

  // ---- Permute: split each origin's layer-1 graph by source owner. -------
  obs::StageSpan stage("permute", "snp");
  Routed<SnpVirtualBatch> sends = PermuteSnpSage(batches, route_);

  // ---- Shuffle: virtual-node batches to source owners. --------------------
  stage.Next("shuffle");
  // recv[g][o] = batch from origin o handled on device g.
  auto recv = ctx_->comm->AllToAllObjects(
      std::move(sends), [](const SnpVirtualBatch& v) { return v.bytes(); },
      Phase::kSample);

  // ---- Execute: partial aggregation + projection at each owner. ----------
  stage.Next("execute");
  const std::int64_t d = ctx_->feature_dim();
  std::vector<std::vector<Tensor>> partials(
      static_cast<std::size_t>(c), std::vector<Tensor>(static_cast<std::size_t>(c)));
  std::vector<std::vector<std::vector<std::int64_t>>> route_index(
      static_cast<std::size_t>(c),
      std::vector<std::vector<std::int64_t>>(static_cast<std::size_t>(c)));
  // Saved for the weight-gradient pass: per (g, o). The self rows are copied
  // out compactly: keeping every device's whole h_all alive until then
  // instead raised train-ps-d512's peak RSS by about a third.
  std::vector<std::vector<Tensor>> saved_agg(partials.size(),
                                             std::vector<Tensor>(partials.size()));
  std::vector<std::vector<Tensor>> saved_self(partials.size(),
                                              std::vector<Tensor>(partials.size()));
  std::vector<std::vector<std::vector<std::int64_t>>> saved_self_rows(
      partials.size(), std::vector<std::vector<std::int64_t>>(partials.size()));
  for (DeviceId g = 0; g < c; ++g) {
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
    // One batched feature gather per device per step (DGL-style): the
    // per-origin unique source lists plus owned-destination self rows in a
    // single store request, then sliced per origin.
    SnpSageGather gather = GatherSnpSage(recv[static_cast<std::size_t>(g)]);
    Tensor h_all = Tensor::Uninitialized(static_cast<std::int64_t>(gather.nodes.size()), d);
    if (!gather.nodes.empty()) ctx_->store->Gather(g, gather.nodes, 0, d, h_all);

    double flops = 0.0;
    std::int64_t transient = h_all.bytes();
    for (DeviceId o = 0; o < c; ++o) {
      const SnpVirtualBatch& vb = recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      if (vb.size() == 0) continue;
      SnpSageGather::OriginView& view = gather.views[static_cast<std::size_t>(o)];
      // Partial mean: sum local sources / total degree.
      Tensor aggd = Tensor::Uninitialized(vb.size(), d);
      const CsrView local_csr{vb.src_indptr, view.col};
      SpmmSum(local_csr, h_all, aggd);
      for (std::int64_t r = 0; r < aggd.rows(); ++r) {
        const float inv = 1.0f / static_cast<float>(vb.deg_total[static_cast<std::size_t>(r)]);
        float* row = aggd.row(r);
        for (std::int64_t j = 0; j < d; ++j) row[j] *= inv;
      }
      Tensor part = Tensor::Uninitialized(vb.size(), sage.out_dim());
      Matmul(aggd, sage.w_neigh().value, part);
      // Self terms for destinations owned here: a contiguous run of h_all.
      const auto num_self = static_cast<std::int64_t>(view.self_rows.size());
      Tensor self_h = Tensor::Uninitialized(num_self, d);
      if (num_self > 0) {
        std::copy_n(h_all.row(view.self_base), num_self * d, self_h.data());
        Tensor self_out = Tensor::Uninitialized(num_self, sage.out_dim());
        Matmul(self_h, sage.w_self().value, self_out);
        ScatterAddRows(self_out, view.self_rows, part);
      }
      flops += 2.0 * static_cast<double>(vb.srcs.size()) * d +
               2.0 * static_cast<double>(vb.size()) * d * sage.out_dim() +
               2.0 * static_cast<double>(num_self) * d * sage.out_dim();
      transient += part.bytes();
      partials[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)] = std::move(part);
      route_index[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)] =
          std::vector<std::int64_t>(vb.dst_local.begin(), vb.dst_local.end());
      saved_agg[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)] = std::move(aggd);
      saved_self[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)] = std::move(self_h);
      saved_self_rows[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)] =
          std::move(view.self_rows);
    }
    ctx_->sim->ChargeCompute(g, flops);
    ctx_->sim->NoteTransient(g, transient);
  }

  // ---- Reshuffle: GroupReduce partials at the requesting devices. --------
  stage.Next("reshuffle");
  std::vector<Tensor> raw0(static_cast<std::size_t>(c));
  std::vector<Tensor*> out_ptrs(static_cast<std::size_t>(c), nullptr);
  for (DeviceId o = 0; o < c; ++o) {
    const Block& b = batches[static_cast<std::size_t>(o)].sample.blocks[0];
    raw0[static_cast<std::size_t>(o)] =
        Tensor(b.num_dst, ctx_->model(o).layer(0).out_dim());
    out_ptrs[static_cast<std::size_t>(o)] = &raw0[static_cast<std::size_t>(o)];
  }
  ctx_->comm->GroupReduce(partials, route_index, out_ptrs, Phase::kTrain);

  // ---- Remainder of the model at each origin. -----------------------------
  stage.Next("execute");
  std::vector<Tensor> grad_raw0(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
    if (batch.labels.empty()) continue;
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(o).layer(0));
    Tensor& r0 = raw0[static_cast<std::size_t>(o)];
    AddBiasRows(r0, sage.bias().value);
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

  // ---- Backward shuffle: destination grads back to partial computers. ----
  stage.Next("reshuffle");
  std::vector<std::vector<Tensor>> grad_sends(
      static_cast<std::size_t>(c), std::vector<Tensor>(static_cast<std::size_t>(c)));
  for (DeviceId g = 0; g < c; ++g) {
    for (DeviceId o = 0; o < c; ++o) {
      const auto& idx = route_index[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      if (idx.empty() || grad_raw0[static_cast<std::size_t>(o)].rows() == 0) continue;
      Tensor rows(static_cast<std::int64_t>(idx.size()),
                  grad_raw0[static_cast<std::size_t>(o)].cols());
      GatherRows(grad_raw0[static_cast<std::size_t>(o)], idx, rows);
      grad_sends[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)] = std::move(rows);
    }
  }
  auto grad_recv = ctx_->comm->AllToAllTensors(grad_sends, Phase::kTrain);

  // ---- Weight gradients at the partial computers. -------------------------
  stage.Next("execute");
  for (DeviceId g = 0; g < c; ++g) {
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
    double flops = 0.0;
    for (DeviceId o = 0; o < c; ++o) {
      const Tensor& grows = grad_recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      if (grows.rows() == 0) continue;
      const Tensor& aggd = saved_agg[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      MatmulTN(aggd, grows, sage.w_neigh().grad, 1.0f, 1.0f);
      const Tensor& self_h = saved_self[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      const auto& self_rows =
          saved_self_rows[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      if (self_h.rows() > 0) {
        Tensor gsel = Tensor::Uninitialized(self_h.rows(), grows.cols());
        GatherRows(grows, self_rows, gsel);
        MatmulTN(self_h, gsel, sage.w_self().grad, 1.0f, 1.0f);
      }
      flops += 4.0 * static_cast<double>(grows.rows()) * d * sage.out_dim();
    }
    ctx_->sim->ChargeCompute(g, flops);
  }
  return agg;
}

StepStats SnpExecutor::StepGat(std::vector<DeviceBatch>& batches) {
  const std::int32_t c = ctx_->num_devices();
  const std::int64_t d = ctx_->feature_dim();
  std::int64_t total_seeds = 0;
  for (const auto& b : batches) total_seeds += static_cast<std::int64_t>(b.labels.size());
  StepStats agg;
  agg.num_seeds = total_seeds;

  // ---- Permute: every layer-1 source node's z row is requested from the
  // device it routes to. -----------------------------------------------------
  obs::StageSpan stage("permute", "snp");
  SnpGatPermute perm = PermuteSnpGat(batches, route_);
  // For reassembly: position of each src node in the origin's z tensor.
  const Routed<std::vector<std::int64_t>> positions = std::move(perm.positions);
  stage.Next("shuffle");
  auto recv_req = ctx_->comm->AllToAllObjects(
      std::move(perm.requests), [](const SnpZRequest& r) { return r.bytes(); },
      Phase::kSample);

  // ---- Execute at owners: load features, project, ship z rows. ------------
  stage.Next("execute");
  std::vector<std::vector<Tensor>> z_sends(
      static_cast<std::size_t>(c), std::vector<Tensor>(static_cast<std::size_t>(c)));
  // Saved for the weight-gradient pass: each device's gathered rows and
  // where each origin's requested rows start in them. The pass reads every
  // row, so keeping h_all costs no memory beyond the rows themselves.
  std::vector<Tensor> saved_h_all(z_sends.size());
  std::vector<std::vector<std::int64_t>> saved_base(z_sends.size());
  for (DeviceId g = 0; g < c; ++g) {
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(g).layer(0));
    // One batched gather per device per step; per-origin requests are
    // served as contiguous row ranges of the batched fetch.
    SnpGatGather gather = GatherSnpGat(recv_req[static_cast<std::size_t>(g)]);
    Tensor h_all = Tensor::Uninitialized(static_cast<std::int64_t>(gather.nodes.size()), d);
    if (!gather.nodes.empty()) ctx_->store->Gather(g, gather.nodes, 0, d, h_all);

    double flops = 0.0;
    std::int64_t transient = h_all.bytes();
    for (DeviceId o = 0; o < c; ++o) {
      const auto& req = recv_req[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      if (req.nodes.empty()) continue;
      const auto n = static_cast<std::int64_t>(req.nodes.size());
      Tensor z = gat.Project(RowRange(h_all, gather.base[static_cast<std::size_t>(o)], n));
      flops += 2.0 * static_cast<double>(n) * d * gat.out_dim();
      // The memory model charges each origin's rows as a buffer of their own.
      transient += n * d * static_cast<std::int64_t>(sizeof(float)) + z.bytes();
      z_sends[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)] = std::move(z);
    }
    ctx_->sim->ChargeCompute(g, flops);
    ctx_->sim->NoteTransient(g, transient);
    saved_h_all[static_cast<std::size_t>(g)] = std::move(h_all);
    saved_base[static_cast<std::size_t>(g)] = std::move(gather.base);
  }
  // Hidden-embedding shuffle (the GAT extra communication).
  stage.Next("reshuffle");
  auto z_recv = ctx_->comm->AllToAllTensors(z_sends, Phase::kTrain);

  // ---- Attention + remainder at origins. -----------------------------------
  stage.Next("execute");
  std::vector<Tensor> grad_z_full(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
    if (batch.labels.empty()) continue;
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(o).layer(0));
    const Block& b = batch.sample.blocks[0];
    Tensor z(b.num_src(), gat.out_dim());
    for (DeviceId g = 0; g < c; ++g) {
      const Tensor& rows = z_recv[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)];
      if (rows.rows() == 0) continue;
      ScatterRows(rows, positions[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)], z);
    }
    std::unique_ptr<GatAttentionContext> attn_ctx;
    Tensor raw0 = gat.AttentionForward(b.csr(), b.num_dst, std::move(z), &attn_ctx);
    const auto& blocks = batch.sample.blocks;
    ModelTape tape;
    const Tensor logits = ctx_->model(o).ForwardFrom(1, blocks, std::move(raw0), &tape);
    Tensor grad_logits;
    const StepStats s = SeedLossAndGrad(batch, logits, total_seeds, grad_logits);
    const Tensor grad_raw0 = ctx_->model(o).BackwardTo(1, blocks, tape, grad_logits);
    grad_z_full[static_cast<std::size_t>(o)] =
        gat.AttentionBackward(b.csr(), b.num_dst, *attn_ctx, grad_raw0);
    ChargeStepCompute(*ctx_, o, blocks, 1);
    ctx_->sim->ChargeCompute(
        o, gat.ForwardFlops(b.num_src(), b.num_dst, b.num_edges()));
    agg.loss += s.loss;
    agg.correct += s.correct;
  }

  // ---- Backward: grad_z rows return to the owners. -------------------------
  stage.Next("reshuffle");
  std::vector<std::vector<Tensor>> gz_sends(
      static_cast<std::size_t>(c), std::vector<Tensor>(static_cast<std::size_t>(c)));
  for (DeviceId o = 0; o < c; ++o) {
    const Tensor& gz = grad_z_full[static_cast<std::size_t>(o)];
    if (gz.rows() == 0) continue;
    for (DeviceId g = 0; g < c; ++g) {
      const auto& pos = positions[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)];
      if (pos.empty()) continue;
      Tensor rows(static_cast<std::int64_t>(pos.size()), gz.cols());
      GatherRows(gz, pos, rows);
      gz_sends[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)] = std::move(rows);
    }
  }
  auto gz_recv = ctx_->comm->AllToAllTensors(gz_sends, Phase::kTrain);
  stage.Next("execute");
  for (DeviceId g = 0; g < c; ++g) {
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(g).layer(0));
    double flops = 0.0;
    for (DeviceId o = 0; o < c; ++o) {
      const Tensor& grows = gz_recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
      if (grows.rows() == 0) continue;
      const auto n = static_cast<std::int64_t>(
          recv_req[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)].nodes.size());
      MatmulTN(RowRange(saved_h_all[static_cast<std::size_t>(g)],
                        saved_base[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)], n),
               grows, gat.w().grad, 1.0f, 1.0f);
      flops += 2.0 * static_cast<double>(grows.rows()) * d * gat.out_dim();
    }
    ctx_->sim->ChargeCompute(g, flops);
  }
  return agg;
}

}  // namespace

std::unique_ptr<StrategyExecutor> MakeSnpExecutor(EngineCtx& ctx) {
  return std::make_unique<SnpExecutor>(ctx);
}

}  // namespace apt
