// Tests for blocks, the neighbor sampler, mini-batch planning, and
// access-frequency collection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <unordered_set>

#include "graph/generators.h"
#include "runtime/parallel_for.h"
#include "sampling/frequency.h"
#include "sampling/minibatch.h"
#include "sampling/neighbor_sampler.h"

namespace apt {
namespace {

CsrGraph TestGraph() { return ErdosRenyi(500, 5000, Rng(17)); }

TEST(BlockTest, ValidateAcceptsWellFormed) {
  Block b;
  b.src_nodes = {10, 20, 30};
  b.num_dst = 2;
  b.indptr = {0, 1, 3};
  b.col = {2, 0, 1};
  b.Validate();
  EXPECT_EQ(b.num_src(), 3);
  EXPECT_EQ(b.num_edges(), 3);
  EXPECT_EQ(b.dst_nodes().size(), 2u);
  EXPECT_GT(b.bytes(), 0);
}

TEST(BlockTest, ValidateRejectsBadCol) {
  Block b;
  b.src_nodes = {1, 2};
  b.num_dst = 1;
  b.indptr = {0, 1};
  b.col = {5};
  EXPECT_THROW(b.Validate(), Error);
}

TEST(BlockTest, ValidateRejectsBadIndptr) {
  Block b;
  b.src_nodes = {1};
  b.num_dst = 1;
  b.indptr = {0, 2};
  b.col = {0};
  EXPECT_THROW(b.Validate(), Error);
}

class SamplerTest : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(SamplerTest, StructureInvariantsHold) {
  const CsrGraph g = TestGraph();
  NeighborSampler sampler(g, GetParam());
  Rng rng(1);
  const std::vector<NodeId> seeds{1, 5, 9, 13, 200};
  const SampledBatch batch = sampler.Sample(seeds, rng);
  ASSERT_EQ(batch.blocks.size(), GetParam().size());
  for (const Block& b : batch.blocks) b.Validate();
  // The last block's destinations are exactly the seeds.
  const Block& last = batch.blocks.back();
  ASSERT_EQ(last.num_dst, static_cast<std::int64_t>(seeds.size()));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(last.src_nodes[i], seeds[i]);
  }
  // Layer chaining: block k's source set equals block k+1's dst prefix.
  for (std::size_t k = 0; k + 1 < batch.blocks.size(); ++k) {
    const Block& outer = batch.blocks[k];
    const Block& inner = batch.blocks[k + 1];
    ASSERT_EQ(outer.num_dst, inner.num_src());
    for (std::int64_t i = 0; i < outer.num_dst; ++i) {
      EXPECT_EQ(outer.src_nodes[static_cast<std::size_t>(i)],
                inner.src_nodes[static_cast<std::size_t>(i)]);
    }
  }
}

TEST_P(SamplerTest, FanoutBoundsRespected) {
  const CsrGraph g = TestGraph();
  NeighborSampler sampler(g, GetParam());
  Rng rng(2);
  const std::vector<NodeId> seeds{3, 7, 11};
  const SampledBatch batch = sampler.Sample(seeds, rng);
  // Fanouts apply seed-outward; blocks are stored innermost-first.
  for (std::size_t k = 0; k < batch.blocks.size(); ++k) {
    const int fanout = GetParam()[batch.blocks.size() - 1 - k];
    const Block& b = batch.blocks[k];
    for (std::int64_t i = 0; i < b.num_dst; ++i) {
      const std::int64_t deg = b.indptr[static_cast<std::size_t>(i) + 1] -
                               b.indptr[static_cast<std::size_t>(i)];
      EXPECT_LE(deg, fanout);
      const NodeId v = b.src_nodes[static_cast<std::size_t>(i)];
      EXPECT_LE(deg, g.Degree(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, SamplerTest,
                         ::testing::Values(std::vector<int>{3},
                                           std::vector<int>{4, 2},
                                           std::vector<int>{10, 5},
                                           std::vector<int>{5, 4, 3}),
                         [](const auto& info) {
                           std::string n = "f";
                           for (int f : info.param) n += "_" + std::to_string(f);
                           return n;
                         });

TEST(SamplerTest, SampledNeighborsAreRealAndDistinct) {
  const CsrGraph g = TestGraph();
  NeighborSampler sampler(g, {5});
  Rng rng(3);
  const std::vector<NodeId> seeds{42};
  const SampledBatch batch = sampler.Sample(seeds, rng);
  const Block& b = batch.blocks[0];
  std::set<NodeId> seen;
  const auto nbrs = g.Neighbors(42);
  const std::unordered_set<NodeId> nbr_set(nbrs.begin(), nbrs.end());
  for (std::int64_t e = b.indptr[0]; e < b.indptr[1]; ++e) {
    const NodeId u = b.src_nodes[static_cast<std::size_t>(b.col[static_cast<std::size_t>(e)])];
    EXPECT_TRUE(nbr_set.count(u)) << "sampled non-neighbor " << u;
    EXPECT_TRUE(seen.insert(u).second) << "duplicate neighbor " << u;
  }
}

TEST(SamplerTest, SmallDegreeTakesAllNeighbors) {
  // Star: node 0 has exactly 2 in-neighbors; fanout 10 must take both.
  const std::vector<NodeId> src{1, 2};
  const std::vector<NodeId> dst{0, 0};
  const CsrGraph g = BuildCsr(3, src, dst, false);
  NeighborSampler sampler(g, {10});
  Rng rng(4);
  const std::vector<NodeId> seeds{0};
  const SampledBatch batch = sampler.Sample(seeds, rng);
  EXPECT_EQ(batch.blocks[0].num_edges(), 2);
}

TEST(SamplerTest, DeterministicGivenRng) {
  const CsrGraph g = TestGraph();
  NeighborSampler sampler(g, {4, 3});
  Rng r1(9), r2(9);
  const std::vector<NodeId> seeds{5, 10, 15};
  const SampledBatch a = sampler.Sample(seeds, r1);
  const SampledBatch b = sampler.Sample(seeds, r2);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t k = 0; k < a.blocks.size(); ++k) {
    EXPECT_EQ(a.blocks[k].src_nodes, b.blocks[k].src_nodes);
    EXPECT_EQ(a.blocks[k].col, b.blocks[k].col);
  }
}

TEST(SamplerTest, EmptySeedsYieldEmptyBlocks) {
  const CsrGraph g = TestGraph();
  NeighborSampler sampler(g, {3, 3});
  Rng rng(5);
  const SampledBatch batch = sampler.Sample({}, rng);
  for (const Block& b : batch.blocks) {
    EXPECT_EQ(b.num_dst, 0);
    EXPECT_EQ(b.num_edges(), 0);
  }
}

// --- golden outputs ----------------------------------------------------------
//
// The sampler's output is a contract: the engine's parity suites, the dry-run
// volumes and every sim_* bench record depend on the exact Blocks (local-id
// order included) and on the exact RNG draws. These hashes pin both for fixed
// graphs, seeds and fanouts.

/// FNV-1a over every block's num_dst, src_nodes, indptr and col, in order.
std::uint64_t BatchHash(const SampledBatch& batch) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<std::uint64_t>(x) >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_all = [&mix](const std::vector<std::int64_t>& v) {
    mix(static_cast<std::int64_t>(v.size()));
    for (std::int64_t x : v) mix(x);
  };
  for (const Block& b : batch.blocks) {
    mix(b.num_dst);
    mix_all(b.src_nodes);
    mix_all(b.indptr);
    mix_all(b.col);
  }
  return h;
}

/// Hub-heavy graph: Zipf popularity gives a few nodes degree >> fanout.
const CsrGraph& HubGraph() {
  static const CsrGraph g = [] {
    ZipfCommunityParams p;
    p.num_nodes = 2000;
    p.num_edges = 20000;
    p.num_communities = 4;
    p.zipf_exponent = 1.1;
    p.seed = 5;
    return ZipfCommunityGraph(p);
  }();
  return g;
}

/// 50 nodes; only 0..29 have edges, so 30..49 are isolated.
const CsrGraph& IsolatedGraph() {
  static const CsrGraph g = [] {
    std::vector<NodeId> src, dst;
    for (NodeId v = 0; v < 30; ++v) {
      src.push_back(v);
      dst.push_back((v * 7 + 3) % 30);
    }
    return BuildCsr(50, src, dst, /*symmetrize=*/true);
  }();
  return g;
}

const CsrGraph& ErGraph() {
  static const CsrGraph g = TestGraph();
  return g;
}

struct GoldenCase {
  const char* name;
  const CsrGraph& (*graph)();
  std::vector<NodeId> seeds;
  std::vector<int> fanouts;
  std::uint64_t rng_seed;
  std::uint64_t hash;  ///< BatchHash of the sample
};

std::vector<NodeId> SpreadSeeds(std::int64_t count, NodeId num_nodes, NodeId stride) {
  std::vector<NodeId> seeds(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    seeds[static_cast<std::size_t>(i)] = (i * stride + 11) % num_nodes;
  }
  return seeds;
}

std::vector<NodeId> HubSeeds() {
  // The 8 highest-degree nodes, then 120 spread ones (some repeats).
  const CsrGraph& g = HubGraph();
  std::vector<NodeId> by_degree(static_cast<std::size_t>(g.num_nodes()));
  std::iota(by_degree.begin(), by_degree.end(), NodeId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&g](NodeId a, NodeId b) { return g.Degree(a) > g.Degree(b); });
  std::vector<NodeId> seeds(by_degree.begin(), by_degree.begin() + 8);
  const auto rest = SpreadSeeds(120, g.num_nodes(), 331);
  seeds.insert(seeds.end(), rest.begin(), rest.end());
  return seeds;
}

const std::vector<GoldenCase>& GoldenCases() {
  static const std::vector<GoldenCase> cases = {
      {"batch_of_1", ErGraph, {42}, {10, 5}, 1, 0x702a818361725589ULL},
      {"batch_of_128", ErGraph, SpreadSeeds(128, 500, 37), {10, 10, 10}, 2,
       0xef325c7ce21d58e2ULL},
      {"duplicate_seeds", ErGraph, {7, 7, 3, 7, 3, 499, 0}, {4, 3}, 3,
       0x6d438f1c444ffd3fULL},
      {"hubs_over_fanout", HubGraph, HubSeeds(), {10, 10}, 4, 0x5017f7837f6b8babULL},
      {"fanout_covers_degree", HubGraph, SpreadSeeds(16, 2000, 97), {1000, 3}, 5,
       0x84b4cb288aa3f7f9ULL},
      {"isolated_nodes", IsolatedGraph, {30, 0, 31, 5, 49, 30}, {5, 5}, 6,
       0xd665854380900fc6ULL},
  };
  return cases;
}

SampledBatch SampleCase(const GoldenCase& c) {
  NeighborSampler sampler(c.graph(), c.fanouts);
  Rng rng(c.rng_seed);
  return sampler.Sample(c.seeds, rng);
}

TEST(SamplerGoldenTest, OutputsMatchPinnedHashes) {
  for (const GoldenCase& c : GoldenCases()) {
    const SampledBatch batch = SampleCase(c);
    for (const Block& b : batch.blocks) b.Validate();
    EXPECT_EQ(BatchHash(batch), c.hash)
        << c.name << ": got 0x" << std::hex << BatchHash(batch);
  }
}

TEST(SamplerGoldenTest, CasesCoverTheirShapes) {
  const CsrGraph& hubs = HubGraph();
  const auto hub_seeds = HubSeeds();
  EXPECT_GT(hubs.Degree(hub_seeds.front()), 10);
  for (NodeId v : SpreadSeeds(16, 2000, 97)) EXPECT_LE(hubs.Degree(v), 1000);
}

TEST(SamplerGoldenTest, IsolatedSeedsKeepTheirRowsWithNoEdges) {
  const GoldenCase& c = GoldenCases().back();
  const SampledBatch batch = SampleCase(c);
  const Block& last = batch.blocks.back();
  ASSERT_EQ(last.num_dst, static_cast<std::int64_t>(c.seeds.size()));
  for (std::size_t i = 0; i < c.seeds.size(); ++i) {
    if (c.seeds[i] < 30) continue;
    EXPECT_EQ(last.indptr[i + 1], last.indptr[i]) << "isolated seed " << c.seeds[i];
  }
}

TEST(SamplerGoldenTest, ConcurrentLanesMatchSerialResults) {
  // One shared const sampler per case, many lanes sampling every case in a
  // lane-dependent order (large and small samples interleave on each
  // thread's scratch table): every result equals the serial one.
  const auto& cases = GoldenCases();
  std::vector<std::unique_ptr<NeighborSampler>> samplers;
  std::vector<SampledBatch> serial;
  for (const GoldenCase& c : cases) {
    samplers.push_back(std::make_unique<NeighborSampler>(c.graph(), c.fanouts));
    serial.push_back(SampleCase(c));
  }
  constexpr std::int64_t kLanes = 32;
  const auto n = static_cast<std::int64_t>(cases.size());
  std::vector<std::uint8_t> ok(static_cast<std::size_t>(kLanes * n), 0);
  ParallelForDynamic(0, kLanes, [&](std::int64_t lane) {
    for (std::int64_t k = 0; k < n; ++k) {
      const auto ci = static_cast<std::size_t>((lane + k) % n);
      Rng rng(cases[ci].rng_seed);
      const SampledBatch got = samplers[ci]->Sample(cases[ci].seeds, rng);
      bool same = got.blocks.size() == serial[ci].blocks.size();
      for (std::size_t b = 0; same && b < got.blocks.size(); ++b) {
        const Block& x = got.blocks[b];
        const Block& y = serial[ci].blocks[b];
        same = x.num_dst == y.num_dst && x.src_nodes == y.src_nodes &&
               x.indptr == y.indptr && x.col == y.col;
      }
      ok[static_cast<std::size_t>(lane * n + k)] = same ? 1 : 0;
    }
  }, /*grain=*/1);
  for (std::size_t i = 0; i < ok.size(); ++i) {
    EXPECT_EQ(ok[i], 1) << "lane " << i / cases.size() << " case "
                        << cases[(i / cases.size() + i % cases.size()) % cases.size()].name;
  }
}

TEST(MinibatchTest, EpochShufflesAreEpochIndexed) {
  std::vector<NodeId> seeds(100);
  std::iota(seeds.begin(), seeds.end(), NodeId{0});
  MinibatchPlan plan(seeds, 10, 2);
  const auto e0 = plan.EpochSeeds(0);
  const auto e0_again = plan.EpochSeeds(0);
  const auto e1 = plan.EpochSeeds(1);
  EXPECT_EQ(e0, e0_again);
  EXPECT_NE(e0, e1);
  // Both are permutations of the seed set.
  std::set<NodeId> s0(e0.begin(), e0.end()), s1(e1.begin(), e1.end());
  EXPECT_EQ(s0.size(), 100u);
  EXPECT_EQ(s1.size(), 100u);
}

TEST(MinibatchTest, StepsCoverEverySeedOnce) {
  std::vector<NodeId> seeds(103);
  std::iota(seeds.begin(), seeds.end(), NodeId{0});
  MinibatchPlan plan(seeds, 10, 2);  // 20 per global step -> 6 steps
  EXPECT_EQ(plan.StepsPerEpoch(), 6);
  const auto epoch = plan.EpochSeeds(3);
  std::multiset<NodeId> seen;
  for (std::int64_t s = 0; s < plan.StepsPerEpoch(); ++s) {
    for (NodeId v : plan.StepSeeds(epoch, s)) seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 103u);
  for (NodeId v : seeds) EXPECT_EQ(seen.count(v), 1u);
}

TEST(MinibatchTest, RejectsEmptyOrInvalid) {
  EXPECT_THROW(MinibatchPlan({}, 10, 2), Error);
  EXPECT_THROW(MinibatchPlan({1}, 0, 2), Error);
  EXPECT_THROW(MinibatchPlan({1}, 4, 0), Error);
}

TEST(FrequencyTest, CountsInputNodes) {
  FrequencyCollector freq(10);
  SampledBatch batch;
  Block b;
  b.src_nodes = {1, 2, 3};
  b.num_dst = 1;
  b.indptr = {0, 2};
  b.col = {1, 2};
  batch.blocks.push_back(b);
  freq.Record(batch);
  freq.Record(batch);
  EXPECT_EQ(freq.counts()[1], 2);
  EXPECT_EQ(freq.counts()[0], 0);
  EXPECT_EQ(freq.TotalAccesses(), 6);
  freq.RecordNodes(std::vector<NodeId>{9, 9});
  EXPECT_EQ(freq.counts()[9], 2);
}

TEST(FrequencyTest, HotnessOrderDescending) {
  FrequencyCollector freq(4);
  freq.RecordNodes(std::vector<NodeId>{2, 2, 2, 0, 0, 3});
  const auto order = freq.NodesByHotness();
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(order[2], 3);
  EXPECT_EQ(order[3], 1);
}

}  // namespace
}  // namespace apt
