// Feature store + cache policy tests: tier classification, gather
// correctness, time charging, and the per-strategy cache rules of §3.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "feature/cache_policy.h"
#include "feature/feature_store.h"
#include "graph/generators.h"
#include "tensor/ops.h"

namespace apt {
namespace {

Tensor MakeFeatures(NodeId n, std::int64_t d) {
  Tensor t(n, d);
  for (NodeId v = 0; v < n; ++v) {
    for (std::int64_t j = 0; j < d; ++j) {
      t(v, j) = static_cast<float>(v * 1000 + j);
    }
  }
  return t;
}

TEST(FeatureStoreTest, GatherCopiesCorrectRows) {
  SimContext sim(SingleMachineCluster(2));
  const Tensor feats = MakeFeatures(10, 4);
  FeatureStore store(feats, std::vector<MachineId>(10, 0), sim);
  store.ConfigureCaches({{1, 2}, {}}, 16);
  const std::vector<NodeId> nodes{2, 7};
  Tensor out(2, 4);
  const LoadVolume vol = store.Gather(0, nodes, 0, 4, out);
  EXPECT_FLOAT_EQ(out(0, 0), 2000.0f);
  EXPECT_FLOAT_EQ(out(1, 3), 7003.0f);
  EXPECT_EQ(vol.rows[static_cast<int>(FeatureTier::kGpuCache)], 1);  // node 2
  EXPECT_EQ(vol.rows[static_cast<int>(FeatureTier::kLocalCpu)], 1);  // node 7
}

TEST(FeatureStoreTest, ColumnSliceGather) {
  SimContext sim(SingleMachineCluster(1));
  const Tensor feats = MakeFeatures(4, 8);
  FeatureStore store(feats, std::vector<MachineId>(4, 0), sim);
  store.ConfigureCaches({{}}, 0);
  Tensor out(1, 3);
  store.Gather(0, std::vector<NodeId>{3}, 2, 5, out);
  EXPECT_FLOAT_EQ(out(0, 0), 3002.0f);
  EXPECT_FLOAT_EQ(out(0, 2), 3004.0f);
}

TEST(FeatureStoreTest, TierClassificationHierarchy) {
  // 2 machines x 2 GPUs with NVLink: own cache > peer > local cpu > remote.
  ClusterSpec cluster = MultiMachineCluster(2, 2, /*nvlink=*/true);
  SimContext sim(cluster);
  const Tensor feats = MakeFeatures(8, 2);
  // Nodes 0..3 on machine 0, nodes 4..7 on machine 1.
  std::vector<MachineId> placement{0, 0, 0, 0, 1, 1, 1, 1};
  FeatureStore store(feats, placement, sim);
  store.ConfigureCaches({{0}, {1}, {}, {}}, 8);
  EXPECT_EQ(store.Classify(0, 0), FeatureTier::kGpuCache);
  EXPECT_EQ(store.Classify(0, 1), FeatureTier::kPeerGpu);   // cached on dev 1
  EXPECT_EQ(store.Classify(0, 2), FeatureTier::kLocalCpu);  // machine 0 CPU
  EXPECT_EQ(store.Classify(0, 5), FeatureTier::kRemoteCpu); // machine 1 CPU
  // Device 2 (machine 1): node 1 is cached only on machine 0's GPU -> no
  // peer access across machines; falls through to remote CPU.
  EXPECT_EQ(store.Classify(2, 1), FeatureTier::kRemoteCpu);
  EXPECT_EQ(store.Classify(2, 5), FeatureTier::kLocalCpu);
}

TEST(FeatureStoreTest, NoPeerReadsWithoutNvlink) {
  SimContext sim(SingleMachineCluster(2, /*nvlink=*/false));
  const Tensor feats = MakeFeatures(4, 2);
  FeatureStore store(feats, std::vector<MachineId>(4, 0), sim);
  store.ConfigureCaches({{}, {3}}, 8);
  EXPECT_EQ(store.Classify(0, 3), FeatureTier::kLocalCpu);
}

TEST(FeatureStoreTest, LoadSecondsOrdering) {
  SimContext sim(MultiMachineCluster(2, 1));
  const Tensor feats = MakeFeatures(4, 2);
  FeatureStore store(feats, std::vector<MachineId>{0, 0, 1, 1}, sim);
  store.ConfigureCaches({{0}, {}}, 8);
  LoadVolume cache_vol, cpu_vol, remote_vol;
  cache_vol.bytes[static_cast<int>(FeatureTier::kGpuCache)] = 1 << 20;
  cpu_vol.bytes[static_cast<int>(FeatureTier::kLocalCpu)] = 1 << 20;
  remote_vol.bytes[static_cast<int>(FeatureTier::kRemoteCpu)] = 1 << 20;
  EXPECT_LT(store.LoadSeconds(0, cache_vol), store.LoadSeconds(0, cpu_vol));
  EXPECT_LT(store.LoadSeconds(0, cpu_vol), store.LoadSeconds(0, remote_vol));
}

TEST(FeatureStoreTest, GatherChargesLoadPhase) {
  SimContext sim(SingleMachineCluster(1));
  const Tensor feats = MakeFeatures(100, 16);
  FeatureStore store(feats, std::vector<MachineId>(100, 0), sim);
  store.ConfigureCaches({{}}, 0);
  std::vector<NodeId> nodes(100);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  Tensor out(100, 16);
  store.Gather(0, nodes, 0, 16, out);
  EXPECT_GT(sim.PhaseOf(0, Phase::kLoad), 0.0);
  EXPECT_DOUBLE_EQ(sim.PhaseOf(0, Phase::kTrain), 0.0);
  EXPECT_GT(sim.TrafficBytes(TrafficClass::kLocalCpuGpu), 0);
}

TEST(FeatureStoreTest, CountGatherMatchesGather) {
  SimContext sim(SingleMachineCluster(1));
  const Tensor feats = MakeFeatures(50, 8);
  FeatureStore store(feats, std::vector<MachineId>(50, 0), sim);
  store.ConfigureCaches({{1, 2, 3}}, 32);
  const std::vector<NodeId> nodes{1, 2, 30, 40};
  const LoadVolume counted = store.CountGather(0, nodes, 0, 8);
  Tensor out(4, 8);
  const LoadVolume gathered = store.Gather(0, nodes, 0, 8, out);
  for (int t = 0; t < kNumFeatureTiers; ++t) {
    EXPECT_EQ(counted.bytes[static_cast<std::size_t>(t)],
              gathered.bytes[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(counted.TotalBytes(), 4 * 8 * 4);
  EXPECT_EQ(counted.CpuBytes(), 2 * 8 * 4);
}

TEST(FeatureStoreTest, CacheRegistersMemory) {
  SimContext sim(SingleMachineCluster(2));
  const Tensor feats = MakeFeatures(10, 4);
  FeatureStore store(feats, std::vector<MachineId>(10, 0), sim);
  store.ConfigureCaches({{0, 1, 2}, {5}}, 100);
  EXPECT_EQ(sim.PeakMemory(0), 300);
  EXPECT_EQ(sim.PeakMemory(1), 100);
}

// --- tier classification against a brute-force reference -------------------

struct TierCase {
  std::int32_t machines;
  bool nvlink;
};

class FeatureTierTest : public ::testing::TestWithParam<TierCase> {};

TEST_P(FeatureTierTest, MatchesBruteForceReference) {
  const auto [machines, nvlink] = GetParam();
  const ClusterSpec cluster = MultiMachineCluster(machines, 4, nvlink);
  SimContext sim(cluster);
  constexpr NodeId kNodes = 300;
  const Tensor feats = MakeFeatures(kNodes, 2);
  std::vector<MachineId> placement(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    placement[static_cast<std::size_t>(v)] = static_cast<MachineId>((v * 7) % machines);
  }
  FeatureStore store(feats, placement, sim);
  const auto devices = static_cast<std::size_t>(cluster.num_devices());
  Rng rng(static_cast<std::uint64_t>(machines * 10 + (nvlink ? 1 : 0)));

  // Random lists with duplicates; device 1 stays empty; the id-range ends
  // (0 and kNodes - 1) are cached somewhere.
  auto random_lists = [&] {
    std::vector<std::vector<NodeId>> lists(devices);
    for (std::size_t d = 0; d < devices; ++d) {
      if (d == 1) continue;
      const auto len = static_cast<std::size_t>(rng.NextBelow(120));
      for (std::size_t i = 0; i < len; ++i) {
        lists[d].push_back(static_cast<NodeId>(rng.NextBelow(kNodes)));
      }
      if (len > 3) lists[d].push_back(lists[d][len / 2]);
    }
    lists[0].push_back(0);
    lists[devices - 1].push_back(kNodes - 1);
    return lists;
  };
  auto check = [&](const std::vector<std::vector<NodeId>>& lists) {
    auto ref_cached = [&](DeviceId d, NodeId v) {
      const auto& l = lists[static_cast<std::size_t>(d)];
      return std::find(l.begin(), l.end(), v) != l.end();
    };
    auto ref_tier = [&](DeviceId d, NodeId v) {
      if (ref_cached(d, v)) return FeatureTier::kGpuCache;
      const MachineId m = cluster.MachineOf(d);
      if (nvlink) {
        for (DeviceId p = 0; p < cluster.num_devices(); ++p) {
          if (p != d && cluster.MachineOf(p) == m && ref_cached(p, v)) {
            return FeatureTier::kPeerGpu;
          }
        }
      }
      return placement[static_cast<std::size_t>(v)] == m ? FeatureTier::kLocalCpu
                                                         : FeatureTier::kRemoteCpu;
    };
    std::vector<NodeId> request;
    for (int i = 0; i < 400; ++i) request.push_back(static_cast<NodeId>(rng.NextBelow(kNodes)));
    request.push_back(0);
    request.push_back(kNodes - 1);
    for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
      for (NodeId v = 0; v < kNodes; ++v) {
        ASSERT_EQ(store.Cached(d, v), ref_cached(d, v)) << "dev " << d << " node " << v;
        ASSERT_EQ(store.Classify(d, v), ref_tier(d, v)) << "dev " << d << " node " << v;
      }
      LoadVolume want;
      for (NodeId v : request) {
        const auto t = static_cast<std::size_t>(ref_tier(d, v));
        want.rows[t] += 1;
        want.bytes[t] += 2 * static_cast<std::int64_t>(sizeof(float));
      }
      const LoadVolume got = store.CountGather(d, request, 0, 2);
      EXPECT_EQ(got.rows, want.rows) << "dev " << d;
      EXPECT_EQ(got.bytes, want.bytes) << "dev " << d;
    }
  };

  const auto first = random_lists();
  store.ConfigureCaches(first, 8);
  check(first);
  // A second call replaces the membership: nothing of the first survives.
  const auto second = random_lists();
  store.ConfigureCaches(second, 8);
  check(second);
  store.ConfigureCaches(std::vector<std::vector<NodeId>>(devices), 8);
  check(std::vector<std::vector<NodeId>>(devices));
}

INSTANTIATE_TEST_SUITE_P(Clusters, FeatureTierTest,
                         ::testing::Values(TierCase{1, false}, TierCase{1, true},
                                           TierCase{2, false}, TierCase{2, true}),
                         [](const auto& info) {
                           return std::to_string(info.param.machines) + "x4_" +
                                  (info.param.nvlink ? "nvlink" : "pcie");
                         });

TEST(FeatureStoreTest, RejectsOutOfRangeCacheNodes) {
  SimContext sim(SingleMachineCluster(1));
  const Tensor feats = MakeFeatures(10, 2);
  FeatureStore store(feats, std::vector<MachineId>(10, 0), sim);
  EXPECT_THROW(store.ConfigureCaches({{10}}, 8), Error);
  EXPECT_THROW(store.ConfigureCaches({{-1}}, 8), Error);
}

// ---------------------------------------------------------------------------
// Cache policy (paper §3.2 rules).
// ---------------------------------------------------------------------------

struct PolicyFixture {
  NodeId n = 100;
  std::vector<std::int64_t> hotness;
  std::vector<PartId> partition;
  CsrGraph graph;

  PolicyFixture() {
    hotness.resize(static_cast<std::size_t>(n));
    // Node v has hotness n - v (node 0 hottest).
    for (NodeId v = 0; v < n; ++v) hotness[static_cast<std::size_t>(v)] = n - v;
    partition.resize(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) partition[static_cast<std::size_t>(v)] = v % 2;
    // A ring so 1-hop expansion is well-defined.
    std::vector<NodeId> src, dst;
    for (NodeId v = 0; v < n; ++v) {
      src.push_back(v);
      dst.push_back((v + 1) % n);
    }
    graph = BuildCsr(n, src, dst, /*symmetrize=*/true);
  }

  CachePolicyInput Input(Strategy s, std::int64_t budget, std::int64_t dim = 4,
                         std::int32_t devices = 2) const {
    CachePolicyInput in;
    in.strategy = s;
    in.budget_bytes_per_device = budget;
    in.feature_dim = dim;
    in.num_devices = devices;
    in.hotness = hotness;
    in.partition = partition;
    in.graph = &graph;
    return in;
  }
};

TEST(CachePolicyTest, GdpCachesGlobalHottest) {
  PolicyFixture f;
  // Budget for 10 full rows (dim 4 floats = 16 bytes/row).
  const CacheConfig cfg = ConfigureCache(f.Input(Strategy::kGDP, 160));
  ASSERT_EQ(cfg.cache_nodes.size(), 2u);
  EXPECT_EQ(cfg.bytes_per_cached_row, 16);
  for (const auto& nodes : cfg.cache_nodes) {
    ASSERT_EQ(nodes.size(), 10u);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(nodes[i], static_cast<NodeId>(i));  // hottest = lowest ids
    }
  }
}

TEST(CachePolicyTest, NfpCachesMoreRowsPerByte) {
  PolicyFixture f;
  const CacheConfig gdp = ConfigureCache(f.Input(Strategy::kGDP, 160));
  const CacheConfig nfp = ConfigureCache(f.Input(Strategy::kNFP, 160));
  // NFP stores dim/C per row => 2x the rows for the same budget (C=2).
  EXPECT_EQ(nfp.bytes_per_cached_row, 8);
  EXPECT_EQ(nfp.cache_nodes[0].size(), 2 * gdp.cache_nodes[0].size());
}

TEST(CachePolicyTest, SnpCachesOnlyOwnPartition) {
  PolicyFixture f;
  const CacheConfig cfg = ConfigureCache(f.Input(Strategy::kSNP, 160));
  for (std::int32_t d = 0; d < 2; ++d) {
    for (NodeId v : cfg.cache_nodes[static_cast<std::size_t>(d)]) {
      EXPECT_EQ(f.partition[static_cast<std::size_t>(v)], d);
    }
  }
  // Hottest partition members first: device 0 owns even ids => 0, 2, ...
  EXPECT_EQ(cfg.cache_nodes[0][0], 0);
  EXPECT_EQ(cfg.cache_nodes[1][0], 1);
}

TEST(CachePolicyTest, DnpExpandsToOneHop) {
  PolicyFixture f;
  // Huge budget: everything cacheable. DNP candidates = partition + 1-hop.
  const CacheConfig cfg = ConfigureCache(f.Input(Strategy::kDNP, 1 << 20));
  // On a ring with alternating ownership, partition + 1-hop = all nodes.
  EXPECT_EQ(cfg.cache_nodes[0].size(), static_cast<std::size_t>(f.n));
  const CacheConfig snp = ConfigureCache(f.Input(Strategy::kSNP, 1 << 20));
  // SNP cannot use the excess memory beyond its partition (paper §3.3).
  EXPECT_EQ(snp.cache_nodes[0].size(), static_cast<std::size_t>(f.n) / 2);
}

TEST(CachePolicyTest, ZeroBudgetMeansNoCache) {
  PolicyFixture f;
  for (Strategy s : kAllStrategies) {
    const CacheConfig cfg = ConfigureCache(f.Input(s, 0));
    for (const auto& nodes : cfg.cache_nodes) EXPECT_TRUE(nodes.empty());
  }
}

TEST(CachePolicyTest, BudgetIsRespected) {
  PolicyFixture f;
  for (Strategy s : kAllStrategies) {
    const CacheConfig cfg = ConfigureCache(f.Input(s, 57));  // odd budget
    for (const auto& nodes : cfg.cache_nodes) {
      EXPECT_LE(static_cast<std::int64_t>(nodes.size()) * cfg.bytes_per_cached_row, 57);
    }
  }
}

}  // namespace
}  // namespace apt
