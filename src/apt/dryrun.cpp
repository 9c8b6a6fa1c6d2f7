#include "apt/dryrun.h"

#include <algorithm>

#include "comm/collectives.h"
#include "core/timer.h"
#include "engine/exec_common.h"
#include "engine/permute.h"
#include "sampling/frequency.h"
#include "sampling/minibatch.h"
#include "sampling/neighbor_sampler.h"
#include "sim/sim_context.h"

namespace apt {

namespace {

constexpr std::int64_t kF = sizeof(float);

/// Runs one deterministic epoch (epoch 0 of `plan`) of sampling under
/// `assignment`, invoking `visit(per-device batches)` for each step. The
/// seed schedule and the per-step / per-device rng forks are the trainer's.
template <typename Visit>
void SamplingEpoch(const Dataset& ds, const EngineOptions& opts, const MinibatchPlan& plan,
                   const std::vector<PartId>& partition, SeedAssignment assignment,
                   const Visit& visit) {
  NeighborSampler sampler(ds.graph, opts.fanouts);
  const EpochSeedSchedule schedule(plan, assignment, partition, /*epoch=*/0);
  Rng epoch_rng = Rng(opts.sample_seed).Fork(0);
  for (std::int64_t step = 0; step < schedule.steps(); ++step) {
    const std::vector<std::vector<NodeId>> per_device = schedule.StepSeeds(step);
    Rng step_rng = epoch_rng.Fork(static_cast<std::uint64_t>(step));
    std::vector<DeviceBatch> batches(per_device.size());
    for (std::size_t dev = 0; dev < per_device.size(); ++dev) {
      Rng dev_rng = step_rng.Fork(dev);
      batches[dev].sample = sampler.Sample(per_device[dev], dev_rng);
    }
    visit(batches);
  }
}

/// Adds one step's Permute records to a strategy's volumes. Graph-shuffle
/// bytes are what AllToAllObjects charges for them (the sum over o != g of
/// bytes()); every record that leaves its origin comes back as one
/// hidden-embedding row, counted per receiving device in `step_rows`.
template <typename T>
void TallyShuffle(const Routed<T>& sends, StrategyDryRun& st,
                  std::vector<std::int64_t>& step_rows) {
  for (std::size_t o = 0; o < sends.size(); ++o) {
    for (std::size_t g = 0; g < sends[o].size(); ++g) {
      if (o == g) continue;
      st.graph_shuffle_bytes += sends[o][g].bytes();
      st.shuffle_rows += sends[o][g].size();
      step_rows[g] += sends[o][g].size();
    }
  }
}

}  // namespace

DryRunResult DryRun(const Dataset& dataset, const ClusterSpec& cluster,
                    const std::vector<PartId>& partition, const EngineOptions& opts,
                    const ModelConfig& model) {
  WallTimer wall;
  DryRunResult res;
  const std::int32_t c = cluster.num_devices();
  const std::int64_t d = dataset.feature_dim();
  const bool gat = model.kind == ModelKind::kGat;
  res.profile = ProfileCommunication(cluster);
  // Parameter-carrying probe for the compute half of the overlap-aware cost
  // model and the layer sizes (nothing is ever run through it).
  const GnnModel probe(model);
  const std::int64_t d1 = probe.layer(0).out_dim();
  const MinibatchPlan plan(dataset.train_nodes, opts.batch_size_per_device, c);

  // ---- Pass 1 (chunked): node access frequencies. --------------------------
  FrequencyCollector freq(dataset.graph.num_nodes());
  SamplingEpoch(dataset, opts, plan, partition, SeedAssignment::kChunked,
                [&](const std::vector<DeviceBatch>& batches) {
                  for (const auto& b : batches) freq.Record(b.sample);
                });
  res.hotness.assign(freq.counts().begin(), freq.counts().end());

  // ---- Cache configuration per strategy (paper §3.2 cache rules). ----------
  for (Strategy s : kAllStrategies) {
    CachePolicyInput in;
    in.strategy = s;
    in.budget_bytes_per_device = opts.cache_bytes_per_device;
    in.feature_dim = d;
    in.num_devices = c;
    in.hotness = res.hotness;
    in.partition = partition;
    in.graph = &dataset.graph;
    in.storage_codec = opts.storage_codec;
    res.caches[static_cast<std::size_t>(s)] = ConfigureCache(in);
  }

  // Scratch store per strategy for tier classification (CountGather only).
  SimContext scratch(cluster);
  const std::vector<MachineId> placement =
      FeaturePlacementFromPartition(partition, cluster);
  std::array<std::unique_ptr<FeatureStore>, kNumStrategies> stores;
  for (Strategy s : kAllStrategies) {
    const auto i = static_cast<std::size_t>(s);
    stores[i] = std::make_unique<FeatureStore>(dataset.features, placement, scratch);
    // Byte accounting only (CountGather / LoadSeconds): no rounded copy.
    stores[i]->SetStorageCodec(opts.storage_codec, /*materialize=*/false);
    stores[i]->ConfigureCaches(res.caches[i].cache_nodes,
                               res.caches[i].bytes_per_cached_row);
  }
  for (auto& st : res.per_strategy) {
    st.load.assign(static_cast<std::size_t>(c), LoadVolume{});
  }
  auto& gdp = res.per_strategy[static_cast<std::size_t>(Strategy::kGDP)];
  auto& nfp = res.per_strategy[static_cast<std::size_t>(Strategy::kNFP)];
  auto& snp = res.per_strategy[static_cast<std::size_t>(Strategy::kSNP)];
  auto& dnp = res.per_strategy[static_cast<std::size_t>(Strategy::kDNP)];

  // One full-width batched feature gather by device g, tier-classified the
  // way FeatureStore::Gather charges it; the step's load time is its slowest
  // device's.
  const auto load = [&](Strategy s, std::int32_t g, std::span<const NodeId> nodes,
                        double& step_load) {
    const auto si = static_cast<std::size_t>(s);
    StrategyDryRun& st = res.per_strategy[si];
    const LoadVolume vol = stores[si]->CountGather(g, nodes, 0, d);
    st.load[static_cast<std::size_t>(g)].Add(vol);
    step_load = std::max(step_load, stores[si]->LoadSeconds(g, vol));
    st.peak_transient_bytes = std::max(
        st.peak_transient_bytes, 2 * static_cast<std::int64_t>(nodes.size()) * d * kF);
  };

  // One step's sampling and execute-compute time, added to both strategies
  // that share its samples. The slowest device bounds each step (the trainer
  // synchronizes at every collective), so epoch estimates sum per-step
  // maxima. Compute is the full forward+backward flop count: the paper's
  // strategy-independent T_train.
  const auto add_step_times = [&](const std::vector<DeviceBatch>& batches,
                                  StrategyDryRun& a, StrategyDryRun& b) {
    double sample = 0.0, compute = 0.0;
    for (std::int32_t dev = 0; dev < c; ++dev) {
      const SampledBatch& batch = batches[static_cast<std::size_t>(dev)].sample;
      const DeviceSpec& gpu = cluster.machine(cluster.MachineOf(dev)).gpu;
      sample = std::max(sample, SampleSeconds(cluster, dev, batch));
      compute = std::max(compute, gpu.kernel_launch_s + StepFlops(probe, batch.blocks, 0) /
                                                            gpu.EffectiveFlops());
    }
    a.sample_seconds += sample;
    b.sample_seconds += sample;
    a.train_compute_seconds += compute;
    b.train_compute_seconds += compute;
  };

  // ---- Pass 2 (chunked): GDP + NFP volumes. ---------------------------------
  const std::int64_t slice = std::max<std::int64_t>(1, d / c);
  SamplingEpoch(dataset, opts, plan, partition, SeedAssignment::kChunked,
                [&](const std::vector<DeviceBatch>& batches) {
    add_step_times(batches, gdp, nfp);
    std::int64_t nfp_graph_bytes = 0;
    std::vector<std::int64_t> nfp_transient(static_cast<std::size_t>(c), 0);
    double gdp_step_load = 0.0;
    std::vector<LoadVolume> nfp_step_vol(static_cast<std::size_t>(c));
    for (std::int32_t dev = 0; dev < c; ++dev) {
      const Block& b0 = batches[static_cast<std::size_t>(dev)].sample.blocks.front();
      // GDP: the device loads its own input features at full width.
      load(Strategy::kGDP, dev, b0.src_nodes, gdp_step_load);
      // NFP: graph broadcast + every device loads its slice of this graph.
      nfp_graph_bytes += b0.bytes();
      for (std::int32_t g = 0; g < c; ++g) {
        const LoadVolume nfp_step =
            stores[static_cast<std::size_t>(Strategy::kNFP)]->CountGather(
                g, b0.src_nodes, 0, slice);
        nfp.load[static_cast<std::size_t>(g)].Add(nfp_step);
        nfp_step_vol[static_cast<std::size_t>(g)].Add(nfp_step);
        nfp_transient[static_cast<std::size_t>(g)] +=
            b0.num_src() * slice * kF +
            (gat ? b0.num_src() * d1 * kF : b0.num_dst * d1 * kF);
      }
      // NFP hidden shuffle rows (fwd reduce + bwd broadcast).
      nfp.shuffle_rows += gat ? b0.num_src() : b0.num_dst;
    }
    gdp.load_seconds += gdp_step_load;
    double nfp_step_load = 0.0;
    for (std::int32_t g = 0; g < c; ++g) {
      nfp_step_load = std::max(
          nfp_step_load, stores[static_cast<std::size_t>(Strategy::kNFP)]->LoadSeconds(
                             g, nfp_step_vol[static_cast<std::size_t>(g)]));
    }
    nfp.load_seconds += nfp_step_load;
    nfp.graph_shuffle_bytes += nfp_graph_bytes;
    for (std::int32_t g = 0; g < c; ++g) {
      nfp.peak_transient_bytes = std::max(nfp.peak_transient_bytes,
                                          nfp_transient[static_cast<std::size_t>(g)]);
    }
  });

  // ---- Pass 3 (partition): SNP + DNP volumes. -------------------------------
  // The executors' own Permute and gather-list code, run without payloads.
  const SnpRoute snp_route{partition, &cluster, opts.hybrid_intra_machine};
  std::int64_t snp_step_rows_sum = 0;  // sum over steps of the busiest device
  std::int64_t dnp_step_rows_sum = 0;
  SamplingEpoch(dataset, opts, plan, partition, SeedAssignment::kPartition,
                [&](const std::vector<DeviceBatch>& batches) {
    add_step_times(batches, snp, dnp);
    double snp_step_load = 0.0, dnp_step_load = 0.0;
    std::vector<std::int64_t> step_rows_snp(static_cast<std::size_t>(c), 0);
    std::vector<std::int64_t> step_rows_dnp(static_cast<std::size_t>(c), 0);
    if (gat) {
      SnpGatPermute perm = PermuteSnpGat(batches, snp_route);
      TallyShuffle(perm.requests, snp, step_rows_snp);
      const auto arrivals = Transpose(std::move(perm.requests));
      for (std::int32_t g = 0; g < c; ++g) {
        load(Strategy::kSNP, g, GatherSnpGat(arrivals[static_cast<std::size_t>(g)]).nodes,
             snp_step_load);
      }
    } else {
      Routed<SnpVirtualBatch> sends = PermuteSnpSage(batches, snp_route);
      TallyShuffle(sends, snp, step_rows_snp);
      const auto arrivals = Transpose(std::move(sends));
      for (std::int32_t g = 0; g < c; ++g) {
        load(Strategy::kSNP, g, GatherSnpSage(arrivals[static_cast<std::size_t>(g)]).nodes,
             snp_step_load);
      }
    }
    Routed<DnpDstBatch> dnp_sends = PermuteDnp(batches, partition);
    TallyShuffle(dnp_sends, dnp, step_rows_dnp);
    const auto dnp_arrivals = Transpose(std::move(dnp_sends));
    for (std::int32_t g = 0; g < c; ++g) {
      load(Strategy::kDNP, g, DnpOwnerBlock(dnp_arrivals[static_cast<std::size_t>(g)]).src_nodes,
           dnp_step_load);
    }
    snp.load_seconds += snp_step_load;
    dnp.load_seconds += dnp_step_load;
    snp_step_rows_sum +=
        *std::max_element(step_rows_snp.begin(), step_rows_snp.end());
    dnp_step_rows_sum +=
        *std::max_element(step_rows_dnp.begin(), step_rows_dnp.end());
  });

  // ---- Convert volumes to seconds with the profiled operator speeds. -------
  const double atob = res.profile.alltoall_bytes_per_s;
  const double arb = res.profile.allreduce_bytes_per_s;
  const double bcb = res.profile.broadcast_bytes_per_s;
  // Per-collective latency terms: the execution engine issues blocking
  // collectives every step, so their fixed costs scale with step count, not
  // bytes. A serialized all-to-all pays (C-1) point-to-point latencies; a
  // ring pays (C-1) hop latencies.
  const std::int64_t steps = plan.StepsPerEpoch();
  const MachineSpec& m0 = cluster.machines.front();
  const LinkSpec intra = m0.has_nvlink ? m0.nvlink : m0.pcie;
  const double hop_lat =
      cluster.num_machines() > 1 ? cluster.network.latency_s : intra.latency_s;
  const double coll_lat = static_cast<double>(c - 1) * hop_lat;
  // SNP/DNP: graph shuffle (1 all-to-all); hidden shuffle fwd + bwd (2).
  // NFP: graph broadcast (1); C forward allreduces + 1 grad broadcast.
  const double atoa_graph_lat = static_cast<double>(steps) * coll_lat;
  const double atoa_shuffle_lat = 2.0 * static_cast<double>(steps) * coll_lat;
  const double nfp_shuffle_lat = static_cast<double>(steps) * (c + 1) * coll_lat;
  // load_seconds was accumulated as a sum of per-step maxima above (the
  // slowest device bounds every step because the engine's collectives are
  // blocking), matching the trainer's phase accounting.
  // Graph shuffles: NFP broadcast, SNP/DNP all-to-all.
  nfp.graph_shuffle_seconds =
      (bcb > 0 ? static_cast<double>(nfp.graph_shuffle_bytes) / bcb : 0.0) +
      static_cast<double>(steps) * coll_lat;
  snp.graph_shuffle_seconds =
      (atob > 0 ? static_cast<double>(snp.graph_shuffle_bytes) / (atob * c) : 0.0) +
      atoa_graph_lat;
  dnp.graph_shuffle_seconds =
      (atob > 0 ? static_cast<double>(dnp.graph_shuffle_bytes) / (atob * c) : 0.0) +
      atoa_graph_lat;
  // Hidden-embedding shuffles (forward + backward => factor 2; paper's 2d').
  // These are float-tensor collectives, so the wire codec shrinks what the
  // links carry (CodecDenseRatio at the embedding width) and adds an
  // encode + decode memory pass per transfer (codec_seconds). The identity
  // codec has ratio 1 and zero codec compute — same numbers as before.
  const double wire_ratio = CodecDenseRatio(opts.wire_codec, d1);
  const double mem_bw = m0.gpu.mem_bandwidth_bytes_per_s;
  const bool wire_compresses = opts.wire_codec != Codec::kIdentity;
  nfp.shuffle_bytes = 2 * nfp.shuffle_rows * d1 * kF * c;  // 2 d' C N_d
  // Forward: ring allreduce of the partial embeddings; backward: allgather
  // (broadcast) of the destination gradients — each at its own profiled
  // operator speed, exactly as the engine issues them.
  const double nfp_vol = static_cast<double>(nfp.shuffle_rows) * d1 * kF;
  nfp.shuffle_seconds = (arb > 0 ? nfp_vol * wire_ratio / arb : 0.0) +
                        (bcb > 0 ? nfp_vol * wire_ratio / bcb : 0.0) +
                        nfp_shuffle_lat;
  nfp.codec_seconds = wire_compresses ? 2.0 * 2.0 * nfp_vol / mem_bw : 0.0;
  const std::int64_t snp_max_rows = snp_step_rows_sum;
  const std::int64_t dnp_max_rows = dnp_step_rows_sum;
  snp.shuffle_bytes = 2 * snp.shuffle_rows * d1 * kF;  // 2 d' N_vs
  dnp.shuffle_bytes = 2 * dnp.shuffle_rows * d1 * kF;  // 2 d' N_vd
  for (auto& st : res.per_strategy) {
    st.shuffle_wire_bytes =
        static_cast<std::int64_t>(static_cast<double>(st.shuffle_bytes) * wire_ratio);
  }
  snp.shuffle_seconds =
      (atob > 0 ? 2.0 * static_cast<double>(snp_max_rows) * d1 * kF * wire_ratio / atob
                : 0.0) +
      atoa_shuffle_lat;
  dnp.shuffle_seconds =
      (atob > 0 ? 2.0 * static_cast<double>(dnp_max_rows) * d1 * kF * wire_ratio / atob
                : 0.0) +
      atoa_shuffle_lat;
  snp.codec_seconds = wire_compresses
                          ? 2.0 * 2.0 * static_cast<double>(snp_max_rows) * d1 * kF / mem_bw
                          : 0.0;
  dnp.codec_seconds = wire_compresses
                          ? 2.0 * 2.0 * static_cast<double>(dnp_max_rows) * d1 * kF / mem_bw
                          : 0.0;
  // Serial per-step train tail for the pipelined cost model: the gradient
  // ring-allreduce needs every micro-batch's gradients and the optimizer
  // runs after it, so neither overlaps at any pipeline depth. Optimizer
  // flops mirror the trainer's nominal 2 flops per parameter.
  const double param_bytes = static_cast<double>(probe.ParamBytes());
  const double opt_s =
      m0.gpu.kernel_launch_s + (2.0 * param_bytes / 4.0) / m0.gpu.EffectiveFlops();
  // Gradient codec: the DDP allreduce carries post-codec bytes (for the
  // delta codec this is the shape-only worst case — the dry-run cannot see
  // gradient sparsity) plus an encode/decode pass per step.
  const double grad_wire_bytes = static_cast<double>(CodecWireBytes(
      opts.grad_codec, 1, static_cast<std::int64_t>(param_bytes) / kF));
  const double grad_xcode = opts.grad_codec != Codec::kIdentity
                                ? 2.0 * param_bytes / mem_bw
                                : 0.0;
  res.train_fixed_seconds =
      static_cast<double>(steps) *
      ((arb > 0 ? grad_wire_bytes / arb : 0.0) + coll_lat + opt_s + grad_xcode);
  // Canonical quantized layer-0 backward (GDP/DNP under a lossy wire codec
  // on multi-layer SAGE): three extra double allreduces per step — grid
  // stats, dst counts, and the full layer-0 parameter-grad accumulator.
  if (CodecIsLossy(opts.wire_codec) && model.kind == ModelKind::kSage &&
      model.num_layers >= 2) {
    const double acc_bytes =
        static_cast<double>((2 * d * d1 + d1) + 2 + 1) * sizeof(double);
    res.quantized_sync_seconds =
        static_cast<double>(steps) *
        ((arb > 0 ? acc_bytes / arb : 0.0) + 3.0 * coll_lat);
  }

  // ---- Memory feasibility. ---------------------------------------------------
  const std::int64_t device_mem = cluster.machines.front().gpu.memory_bytes;
  for (Strategy s : kAllStrategies) {
    auto& st = res.per_strategy[static_cast<std::size_t>(s)];
    const auto& cache = res.caches[static_cast<std::size_t>(s)];
    std::int64_t cache_bytes = 0;
    for (const auto& nodes : cache.cache_nodes) {
      cache_bytes = std::max(cache_bytes,
                             static_cast<std::int64_t>(nodes.size()) *
                                 cache.bytes_per_cached_row);
    }
    st.fits_memory = cache_bytes + st.peak_transient_bytes <= device_mem;
  }

  res.wall_seconds = wall.Seconds();
  return res;
}

}  // namespace apt
