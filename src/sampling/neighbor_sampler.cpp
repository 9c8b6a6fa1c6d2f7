#include "sampling/neighbor_sampler.h"

#include <algorithm>

#include "core/error.h"
#include "core/node_table.h"

namespace apt {

NeighborSampler::NeighborSampler(const CsrGraph& graph, std::vector<int> fanouts)
    : graph_(graph), fanouts_(std::move(fanouts)) {
  APT_CHECK(!fanouts_.empty());
  for (int f : fanouts_) APT_CHECK_GT(f, 0);
}

Block NeighborSampler::SampleLayer(std::span<const NodeId> dst, int fanout,
                                   Rng& rng) const {
  // Exact edge count first: it sizes `col` and bounds the distinct sources,
  // so the table and every array are O(sample), never O(graph).
  std::int64_t num_edges = 0;
  for (NodeId v : dst) {
    num_edges += std::min<std::int64_t>(
        static_cast<std::int64_t>(graph_.Neighbors(v).size()), fanout);
  }
  const auto num_dst = static_cast<std::int64_t>(dst.size());
  const std::int64_t max_src = std::min(num_dst + num_edges, graph_.num_nodes());

  Block block;
  block.num_dst = num_dst;
  block.src_nodes.reserve(static_cast<std::size_t>(max_src));
  block.src_nodes.assign(dst.begin(), dst.end());
  block.indptr.reserve(dst.size() + 1);
  block.indptr.push_back(0);
  block.col.reserve(static_cast<std::size_t>(num_edges));

  // Per-thread scratch: the sampler stays const and shareable (serving
  // samples from concurrent workers), and each thread reuses its own table
  // and reservoir.
  thread_local NodeTable local;
  thread_local std::vector<NodeId> reservoir;

  // Local id assignment: dst nodes occupy the prefix; new sources appended
  // in first-seen order.
  local.Reset(max_src);
  for (std::int64_t i = 0; i < num_dst; ++i) {
    local.FindOrInsert(dst[static_cast<std::size_t>(i)], i);
  }
  auto local_id = [&](NodeId u) {
    const std::int64_t next = block.num_src();
    const std::int64_t id = local.FindOrInsert(u, next);
    if (id == next) block.src_nodes.push_back(u);
    return id;
  };

  reservoir.resize(static_cast<std::size_t>(fanout));
  for (NodeId v : dst) {
    const auto nbrs = graph_.Neighbors(v);
    const auto deg = static_cast<std::int64_t>(nbrs.size());
    if (deg <= fanout) {
      for (NodeId u : nbrs) block.col.push_back(local_id(u));
    } else {
      // Reservoir sampling: `fanout` distinct neighbors, uniform w/o replacement.
      std::copy_n(nbrs.begin(), fanout, reservoir.begin());
      for (std::int64_t i = fanout; i < deg; ++i) {
        const auto j =
            static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(i + 1)));
        if (j < fanout) {
          reservoir[static_cast<std::size_t>(j)] = nbrs[static_cast<std::size_t>(i)];
        }
      }
      for (std::int64_t i = 0; i < fanout; ++i) {
        block.col.push_back(local_id(reservoir[static_cast<std::size_t>(i)]));
      }
    }
    block.indptr.push_back(block.num_edges());
  }
  return block;
}

SampledBatch NeighborSampler::Sample(std::span<const NodeId> seeds, Rng& rng) const {
  SampledBatch batch;
  batch.seeds.assign(seeds.begin(), seeds.end());
  // Sample outward from the seeds; each hop's source set becomes the next
  // hop's destination frontier. Results are stored innermost-first.
  std::vector<Block> outward;
  outward.reserve(fanouts_.size());
  for (int f : fanouts_) {
    const std::span<const NodeId> frontier =
        outward.empty() ? seeds : std::span<const NodeId>(outward.back().src_nodes);
    outward.push_back(SampleLayer(frontier, f, rng));
  }
  // blocks[0] must be the layer furthest from the seeds.
  batch.blocks.assign(std::make_move_iterator(outward.rbegin()),
                      std::make_move_iterator(outward.rend()));
  return batch;
}

}  // namespace apt
