// Tests for the APT core: dry-run, cost models, planner, adapter, system.
#include <gtest/gtest.h>

#include "apt/apt_system.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::SmallDataset;

struct PlanFixture {
  Dataset ds = SmallDataset(/*feature_dim=*/64, /*nodes=*/3000);
  ClusterSpec cluster = SingleMachineCluster(4);
  ModelConfig model;
  EngineOptions opts;
  std::vector<PartId> partition;

  PlanFixture() {
    model.kind = ModelKind::kSage;
    model.num_layers = 2;
    model.hidden_dim = 16;
    model.input_dim = ds.feature_dim();
    model.num_classes = ds.num_classes;
    opts.fanouts = {5, 5};
    opts.batch_size_per_device = 128;
    opts.cache_bytes_per_device = 64 << 10;
    MultilevelPartitioner ml;
    partition = ml.Partition(ds.graph, cluster.num_devices());
  }
};

TEST(DryRunTest, CollectsHotnessAndVolumes) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  EXPECT_EQ(static_cast<NodeId>(dry.hotness.size()), f.ds.graph.num_nodes());
  std::int64_t total = 0;
  for (auto h : dry.hotness) total += h;
  EXPECT_GT(total, 0);
  for (Strategy s : kAllStrategies) {
    const StrategyDryRun& st = dry.per_strategy[static_cast<std::size_t>(s)];
    EXPECT_GT(st.sample_seconds, 0.0) << ToString(s);
    EXPECT_EQ(st.load.size(), 4u);
    EXPECT_GT(st.load_seconds, 0.0) << ToString(s);
    EXPECT_GT(st.peak_transient_bytes, 0) << ToString(s);
  }
  EXPECT_GE(dry.wall_seconds, 0.0);
}

TEST(DryRunTest, GdpHasNoShuffleOrGraphExchange) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  const auto& gdp = dry.per_strategy[static_cast<std::size_t>(Strategy::kGDP)];
  EXPECT_EQ(gdp.graph_shuffle_bytes, 0);
  EXPECT_EQ(gdp.shuffle_bytes, 0);
  EXPECT_DOUBLE_EQ(gdp.shuffle_seconds, 0.0);
}

TEST(DryRunTest, OtherStrategiesDoShuffle) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  for (Strategy s : {Strategy::kNFP, Strategy::kSNP, Strategy::kDNP}) {
    const auto& st = dry.per_strategy[static_cast<std::size_t>(s)];
    EXPECT_GT(st.graph_shuffle_bytes, 0) << ToString(s);
    EXPECT_GT(st.shuffle_bytes, 0) << ToString(s);
  }
}

TEST(DryRunTest, DnpShufflesFewerRowsThanNfp) {
  // Paper §3.3: each DNP destination shuffles at most one embedding; NFP
  // shuffles every destination on every device.
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  EXPECT_LT(dry.per_strategy[static_cast<std::size_t>(Strategy::kDNP)].shuffle_bytes,
            dry.per_strategy[static_cast<std::size_t>(Strategy::kNFP)].shuffle_bytes);
}

TEST(DryRunTest, SnpSeesFewerCpuReadsThanGdpWithCache) {
  // With partition-aligned caches, SNP's loads hit the cache more than
  // GDP's scattered K-hop accesses (paper §3.3 cache-locality argument).
  PlanFixture f;
  f.opts.cache_bytes_per_device = 256 << 10;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  std::int64_t snp_cpu = 0, gdp_cpu = 0;
  for (std::int32_t d = 0; d < 4; ++d) {
    snp_cpu += dry.per_strategy[static_cast<std::size_t>(Strategy::kSNP)]
                   .load[static_cast<std::size_t>(d)]
                   .CpuBytes();
    gdp_cpu += dry.per_strategy[static_cast<std::size_t>(Strategy::kGDP)]
                   .load[static_cast<std::size_t>(d)]
                   .CpuBytes();
  }
  EXPECT_LT(snp_cpu, gdp_cpu);
}

TEST(DryRunTest, Layer0OutDimRules) {
  // The dry-run sizes the layer-0 shuffles from the model's own first layer.
  ModelConfig m;
  m.kind = ModelKind::kSage;
  m.num_layers = 3;
  m.hidden_dim = 32;
  m.input_dim = 16;
  m.num_classes = 10;
  EXPECT_EQ(GnnModel(m).layer(0).out_dim(), 32);
  m.num_layers = 1;
  EXPECT_EQ(GnnModel(m).layer(0).out_dim(), 10);
  m.kind = ModelKind::kGat;
  m.num_layers = 3;
  m.gat_heads = 4;
  m.hidden_dim = 8;
  EXPECT_EQ(GnnModel(m).layer(0).out_dim(), 32);
}

std::int64_t Counter(const std::string& name) {
  return obs::Metrics::Global().counter(name).Get();
}

TEST(DryRunTest, VolumesEqualExecutedEpoch) {
  // DESIGN.md invariant 2: every byte the cost model predicts is a byte the
  // executors move. One trained epoch under the dry-run's minibatch seed
  // must gather exactly the rows the dry-run counted, per tier, and (SNP,
  // DNP) put exactly the predicted graph + hidden shuffle bytes on the
  // all-to-all. The last configuration adds hybrid SNP routing.
  struct Config {
    ClusterSpec cluster;
    bool hybrid;
  };
  const std::vector<Config> configs = {{SingleMachineCluster(4), false},
                                       {MultiMachineCluster(2, 2), false},
                                       {MultiMachineCluster(2, 2), true}};
  constexpr std::uint64_t kDryRunMinibatchSeed = 1234;
  for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
    for (const Config& config : configs) {
      PlanFixture f;
      f.cluster = config.cluster;
      f.opts.hybrid_intra_machine = config.hybrid;
      f.model.kind = kind;
      f.model.gat_heads = 2;
      const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
      for (Strategy s : kAllStrategies) {
        const std::string where = std::string(ToString(s)) + " " +
                                  (kind == ModelKind::kSage ? "SAGE" : "GAT") + " " +
                                  std::to_string(f.cluster.num_machines()) + "x" +
                                  std::to_string(f.cluster.num_devices()) +
                                  (config.hybrid ? " hybrid" : "");
        TrainerSetup setup =
            BuildTrainerSetup(f.cluster, f.model, f.opts, f.partition, dry, s);
        setup.minibatch_seed = kDryRunMinibatchSeed;
        ParallelTrainer trainer(f.ds, std::move(setup));
        std::array<std::int64_t, kNumFeatureTiers> rows0{}, bytes0{};
        for (int t = 0; t < kNumFeatureTiers; ++t) {
          const std::string tier = ToString(static_cast<FeatureTier>(t));
          rows0[static_cast<std::size_t>(t)] = Counter("feature.rows." + tier);
          bytes0[static_cast<std::size_t>(t)] = Counter("feature.bytes." + tier);
        }
        const std::int64_t alltoall0 = Counter("comm.alltoall.bytes");
        trainer.TrainEpoch(0);

        const StrategyDryRun& st = dry.per_strategy[static_cast<std::size_t>(s)];
        LoadVolume predicted;
        for (const LoadVolume& v : st.load) predicted.Add(v);
        for (int t = 0; t < kNumFeatureTiers; ++t) {
          const auto ti = static_cast<std::size_t>(t);
          const std::string tier = ToString(static_cast<FeatureTier>(t));
          EXPECT_EQ(predicted.rows[ti], Counter("feature.rows." + tier) - rows0[ti])
              << where << " " << tier;
          EXPECT_EQ(predicted.bytes[ti], Counter("feature.bytes." + tier) - bytes0[ti])
              << where << " " << tier;
        }
        if (s == Strategy::kSNP || s == Strategy::kDNP) {
          EXPECT_EQ(st.graph_shuffle_bytes + st.shuffle_bytes,
                    Counter("comm.alltoall.bytes") - alltoall0)
              << where;
        }
      }
    }
  }
}

TEST(CostModelTest, EstimatesComposeLinearly) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  const auto all = EstimateAll(dry);
  for (Strategy s : kAllStrategies) {
    const CostEstimate& e = all[static_cast<std::size_t>(s)];
    EXPECT_EQ(e.strategy, s);
    EXPECT_NEAR(e.Comparable(), e.t_build + e.t_load + e.t_shuffle, 1e-12);
    EXPECT_FALSE(FormatEstimate(e).empty());
  }
}

TEST(PlannerTest, SelectsMinimumComparableCost) {
  PlanFixture f;
  const PlanReport report = MakePlan(f.ds, f.cluster, f.partition, f.opts, f.model);
  double best = 1e100;
  Strategy best_s = Strategy::kGDP;
  for (const CostEstimate& e : report.estimates) {
    if (e.feasible && e.Comparable() < best) {
      best = e.Comparable();
      best_s = e.strategy;
    }
  }
  EXPECT_EQ(report.selected, best_s);
}

TEST(PlannerTest, LargeHiddenDimFavorsGdp) {
  // Fig 8a: with a very large hidden dimension, shuffling hidden embeddings
  // dominates and GDP (which shuffles none) wins.
  PlanFixture f;
  f.model.hidden_dim = 512;
  f.opts.cache_bytes_per_device = 0;
  const PlanReport report = MakePlan(f.ds, f.cluster, f.partition, f.opts, f.model);
  EXPECT_EQ(report.selected, Strategy::kGDP);
}

TEST(PlannerTest, NoCacheFavorsGdp) {
  // Fig 8c: with caches disabled, every strategy pays the same CPU loads but
  // only GDP avoids the shuffle overheads.
  PlanFixture f;
  f.opts.cache_bytes_per_device = 0;
  const PlanReport report = MakePlan(f.ds, f.cluster, f.partition, f.opts, f.model);
  EXPECT_EQ(report.selected, Strategy::kGDP);
}

TEST(AdapterTest, BuildsConsistentSetup) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  const TrainerSetup setup = BuildTrainerSetup(f.cluster, f.model, f.opts, f.partition,
                                               dry, Strategy::kSNP);
  EXPECT_EQ(setup.engine.strategy, Strategy::kSNP);
  EXPECT_EQ(setup.engine.seed_assignment, SeedAssignment::kPartition);
  EXPECT_EQ(setup.partition.size(), f.partition.size());
  EXPECT_EQ(setup.cache.cache_nodes.size(), 4u);
  EXPECT_EQ(setup.feature_placement.size(), f.partition.size());

  const TrainerSetup gdp = BuildTrainerSetup(f.cluster, f.model, f.opts, f.partition,
                                             dry, Strategy::kGDP);
  EXPECT_EQ(gdp.engine.seed_assignment, SeedAssignment::kChunked);
}

TEST(AptSystemTest, EndToEndRunImprovesLoss) {
  PlanFixture f;
  AptSystem system(f.ds, f.cluster, f.model, f.opts);
  const PlanReport& plan = system.Plan();
  EXPECT_TRUE(system.planned());
  (void)plan;
  const auto stats = system.Run(3);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_LT(stats.back().loss, stats.front().loss);
  for (const EpochStats& s : stats) {
    EXPECT_GT(s.sim_seconds, 0.0);
    EXPECT_NEAR(s.sim_seconds,
                s.sample_seconds + s.load_seconds + s.train_seconds, 1e-9);
  }
}

TEST(AptSystemTest, FillsModelDimsFromDataset) {
  PlanFixture f;
  ModelConfig m = f.model;
  m.input_dim = 0;
  m.num_classes = 0;
  AptSystem system(f.ds, f.cluster, m, f.opts);
  auto trainer = system.MakeTrainer(Strategy::kGDP);
  EXPECT_EQ(trainer->setup().model.input_dim, f.ds.feature_dim());
  EXPECT_EQ(trainer->setup().model.num_classes, f.ds.num_classes);
}

TEST(AptSystemTest, CustomPartitionerIsUsed) {
  PlanFixture f;
  RandomPartitioner rnd(123);
  AptSystem system(f.ds, f.cluster, f.model, f.opts, &rnd);
  EXPECT_EQ(system.partition(), rnd.Partition(f.ds.graph, 4));
}

TEST(AptSystemTest, PlanIsCached) {
  PlanFixture f;
  AptSystem system(f.ds, f.cluster, f.model, f.opts);
  const PlanReport& a = system.Plan();
  const PlanReport& b = system.Plan();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace apt
