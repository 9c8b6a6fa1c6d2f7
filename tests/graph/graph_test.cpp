// Tests for the CSR graph, builders, generators, datasets, and statistics.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/generators.h"
#include "graph/stats.h"

namespace apt {
namespace {

TEST(CsrGraphTest, BuildFromEdgeList) {
  const std::vector<NodeId> src{0, 1, 2, 0};
  const std::vector<NodeId> dst{1, 2, 0, 2};
  const CsrGraph g = BuildCsr(3, src, dst, /*symmetrize=*/false);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 4);
  // In-neighbors of 2 are {0, 1}.
  const auto n2 = g.Neighbors(2);
  ASSERT_EQ(n2.size(), 2u);
  EXPECT_EQ(n2[0], 0);
  EXPECT_EQ(n2[1], 1);
}

TEST(CsrGraphTest, SymmetrizeAddsReverseEdges) {
  const std::vector<NodeId> src{0};
  const std::vector<NodeId> dst{1};
  const CsrGraph g = BuildCsr(2, src, dst, /*symmetrize=*/true);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Neighbors(0)[0], 1);
  EXPECT_EQ(g.Neighbors(1)[0], 0);
}

TEST(CsrGraphTest, DeduplicatesParallelEdges) {
  const std::vector<NodeId> src{0, 0, 0};
  const std::vector<NodeId> dst{1, 1, 1};
  const CsrGraph g = BuildCsr(2, src, dst, false);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(CsrGraphTest, NeighborsSorted) {
  const std::vector<NodeId> src{3, 1, 2};
  const std::vector<NodeId> dst{0, 0, 0};
  const CsrGraph g = BuildCsr(4, src, dst, false);
  const auto n = g.Neighbors(0);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

TEST(CsrGraphTest, OutOfRangeThrows) {
  const CsrGraph g = BuildCsr(2, std::vector<NodeId>{0}, std::vector<NodeId>{1}, false);
  EXPECT_THROW(g.Neighbors(2), Error);
  EXPECT_THROW(BuildCsr(2, std::vector<NodeId>{5}, std::vector<NodeId>{0}, false), Error);
}

TEST(CsrGraphTest, RejectsCorruptedArrays) {
  // Valid: 3 nodes, edges into node 1 from 0 and 2.
  EXPECT_NO_THROW(CsrGraph({0, 0, 2, 2}, {0, 2}));
  // Neighbor ids outside [0, num_nodes).
  EXPECT_THROW(CsrGraph({0, 0, 2, 2}, {0, 3}), Error);
  EXPECT_THROW(CsrGraph({0, 0, 2, 2}, {-1, 2}), Error);
  // indptr: non-zero start, decreasing, wrong end.
  EXPECT_THROW(CsrGraph({1, 1, 2, 2}, {0, 2}), Error);
  EXPECT_THROW(CsrGraph({0, 2, 1, 2}, {0, 2}), Error);
  EXPECT_THROW(CsrGraph({0, 0, 2, 3}, {0, 2}), Error);
  EXPECT_THROW(CsrGraph({}, {}), Error);
}

TEST(CsrGraphTest, TopologyBytesPositive) {
  const CsrGraph g = ErdosRenyi(100, 500, Rng(1));
  EXPECT_GT(g.TopologyBytes(), 0);
}

TEST(GeneratorTest, ErdosRenyiBasics) {
  const CsrGraph g = ErdosRenyi(500, 2000, Rng(3));
  EXPECT_EQ(g.num_nodes(), 500);
  EXPECT_GT(g.num_edges(), 3000);  // ~2x after symmetrization minus dedupe
  EXPECT_LE(g.num_edges(), 4000);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.Neighbors(v)) EXPECT_NE(u, v);  // no self loops
  }
}

TEST(GeneratorTest, ZipfCommunityRespectsIntraProb) {
  ZipfCommunityParams p;
  p.num_nodes = 4000;
  p.num_edges = 40000;
  p.num_communities = 8;
  p.zipf_exponent = 0.5;
  p.intra_prob = 0.95;
  const CsrGraph g = ZipfCommunityGraph(p);
  EdgeId intra = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto cv = CommunityOf(v, p.num_nodes, p.num_communities);
    for (NodeId u : g.Neighbors(v)) {
      intra += CommunityOf(u, p.num_nodes, p.num_communities) == cv;
    }
  }
  const double frac = static_cast<double>(intra) / static_cast<double>(g.num_edges());
  EXPECT_GT(frac, 0.85);
}

TEST(GeneratorTest, ZipfExponentControlsDegreeSkew) {
  ZipfCommunityParams flat, skewed;
  flat.num_nodes = skewed.num_nodes = 4000;
  flat.num_edges = skewed.num_edges = 40000;
  flat.zipf_exponent = 0.1;
  skewed.zipf_exponent = 1.1;
  const DegreeStats sf = ComputeDegreeStats(ZipfCommunityGraph(flat));
  const DegreeStats ss = ComputeDegreeStats(ZipfCommunityGraph(skewed));
  EXPECT_GT(ss.max_degree, 2 * sf.max_degree);
}

TEST(GeneratorTest, ZipfDeterministicBySeed) {
  ZipfCommunityParams p;
  p.num_nodes = 1000;
  p.num_edges = 5000;
  p.seed = 9;
  const CsrGraph a = ZipfCommunityGraph(p);
  const CsrGraph b = ZipfCommunityGraph(p);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.indices().begin(), a.indices().end(), b.indices().begin()));
}

TEST(GeneratorTest, RmatHeavyTail) {
  const CsrGraph g = Rmat(12, 40000, 0.57, 0.19, 0.19, Rng(5));
  const DegreeStats s = ComputeDegreeStats(g);
  EXPECT_GT(s.max_degree, 20 * static_cast<EdgeId>(s.mean_degree));
}

TEST(CommunityOfTest, ContiguousBlocks) {
  EXPECT_EQ(CommunityOf(0, 100, 4), 0);
  EXPECT_EQ(CommunityOf(25, 100, 4), 1);
  EXPECT_EQ(CommunityOf(99, 100, 4), 3);
}

TEST(DatasetTest, BuildsConsistentPieces) {
  DatasetParams p;
  p.num_nodes = 3000;
  p.num_edges = 15000;
  p.feature_dim = 16;
  p.num_classes = 4;
  const Dataset ds = MakeDataset(p);
  EXPECT_EQ(ds.graph.num_nodes(), 3000);
  EXPECT_EQ(ds.features.rows(), 3000);
  EXPECT_EQ(ds.features.cols(), 16);
  EXPECT_EQ(ds.labels.size(), 3000u);
  for (auto l : ds.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 4);
  }
  // Splits are disjoint and cover all nodes.
  std::set<NodeId> all;
  for (auto v : ds.train_nodes) all.insert(v);
  for (auto v : ds.val_nodes) EXPECT_TRUE(all.insert(v).second);
  for (auto v : ds.test_nodes) EXPECT_TRUE(all.insert(v).second);
  EXPECT_EQ(all.size(), 3000u);
  EXPECT_NEAR(static_cast<double>(ds.train_nodes.size()), 300.0, 1.0);
}

TEST(DatasetTest, PresetsMatchPaperFeatureDims) {
  EXPECT_EQ(PsLikeParams().feature_dim, 128);
  EXPECT_EQ(FsLikeParams().feature_dim, 256);
  EXPECT_EQ(ImLikeParams().feature_dim, 128);
  // Skew ordering knob: PS most skewed, FS least (paper Table 3).
  EXPECT_GT(PsLikeParams().zipf_exponent, ImLikeParams().zipf_exponent);
  EXPECT_GT(ImLikeParams().zipf_exponent, FsLikeParams().zipf_exponent);
}

TEST(DatasetTest, WithFeatureDimOverride) {
  const DatasetParams p = WithFeatureDim(PsLikeParams(0.1), 64);
  EXPECT_EQ(p.feature_dim, 64);
  const Dataset ds = MakeDataset(p);
  EXPECT_EQ(ds.feature_dim(), 64);
}

TEST(StatsTest, DegreeStats) {
  const std::vector<NodeId> src{0, 0, 0};
  const std::vector<NodeId> dst{1, 2, 3};
  const CsrGraph g = BuildCsr(5, src, dst, false);
  const DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.min_degree, 0);
  EXPECT_EQ(s.max_degree, 1);
  EXPECT_EQ(s.num_isolated, 2);  // node 0 and node 4 have no in-edges
  EXPECT_NEAR(s.mean_degree, 0.6, 1e-9);
}

TEST(StatsTest, AccessSkewBucketsSumToOne) {
  std::vector<std::int64_t> counts(1000);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::int64_t>(1000 / (i + 1));
  }
  const auto buckets = ComputeAccessSkew(counts);
  ASSERT_EQ(buckets.size(), 6u);
  double total = 0.0;
  for (const auto& b : buckets) total += b.access_share;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Zipf-ish counts: the top 1% carries far more than a uniform share.
  EXPECT_GT(buckets[0].access_share, 0.05);
  EXPECT_GT(buckets[0].access_share, buckets[4].access_share);
}

TEST(StatsTest, UniformCountsGiveProportionalShares) {
  std::vector<std::int64_t> counts(1000, 7);
  const auto buckets = ComputeAccessSkew(counts);
  EXPECT_NEAR(buckets[0].access_share, 0.01, 1e-9);   // <1%
  EXPECT_NEAR(buckets[5].access_share, 0.50, 1e-9);   // 50~100%
}

}  // namespace
}  // namespace apt
