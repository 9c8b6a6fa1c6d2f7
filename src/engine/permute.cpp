#include "engine/permute.h"

#include "core/node_table.h"

namespace apt {

namespace {

const Block& Layer0(const DeviceBatch& batch) { return batch.sample.blocks[0]; }

}  // namespace

DeviceId SnpRoute::operator()(DeviceId origin, NodeId u) const {
  const auto owner = static_cast<DeviceId>(partition[static_cast<std::size_t>(u)]);
  if (!machine_local) return owner;
  return cluster->MachineOf(owner) == cluster->MachineOf(origin) ? owner : origin;
}

Routed<SnpVirtualBatch> PermuteSnpSage(std::span<const DeviceBatch> batches,
                                       const SnpRoute& route) {
  const auto c = static_cast<DeviceId>(batches.size());
  Routed<SnpVirtualBatch> sends(
      static_cast<std::size_t>(c), std::vector<SnpVirtualBatch>(static_cast<std::size_t>(c)));
  std::vector<std::vector<NodeId>> by_owner(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    const Block& b = Layer0(batches[static_cast<std::size_t>(o)]);
    for (std::int64_t i = 0; i < b.num_dst; ++i) {
      const std::int64_t deg = b.indptr[static_cast<std::size_t>(i) + 1] -
                               b.indptr[static_cast<std::size_t>(i)];
      for (auto& v : by_owner) v.clear();
      for (std::int64_t e = b.indptr[static_cast<std::size_t>(i)];
           e < b.indptr[static_cast<std::size_t>(i) + 1]; ++e) {
        const NodeId u = b.src_nodes[static_cast<std::size_t>(
            b.col[static_cast<std::size_t>(e)])];
        by_owner[static_cast<std::size_t>(route(o, u))].push_back(u);
      }
      const NodeId dst_global = b.src_nodes[static_cast<std::size_t>(i)];
      const DeviceId self_owner = route(o, dst_global);
      for (DeviceId g = 0; g < c; ++g) {
        const auto& srcs = by_owner[static_cast<std::size_t>(g)];
        const bool self_here = g == self_owner;
        if (srcs.empty() && !self_here) continue;
        SnpVirtualBatch& vb = sends[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)];
        if (vb.src_indptr.empty()) vb.src_indptr.push_back(0);
        vb.dst_local.push_back(i);
        vb.deg_total.push_back(deg);
        vb.self_node.push_back(self_here ? dst_global : kInvalidNode);
        vb.srcs.insert(vb.srcs.end(), srcs.begin(), srcs.end());
        vb.src_indptr.push_back(static_cast<std::int64_t>(vb.srcs.size()));
      }
    }
  }
  return sends;
}

SnpSageGather GatherSnpSage(std::span<const SnpVirtualBatch> arrivals) {
  SnpSageGather gather;
  gather.views.resize(arrivals.size());
  NodeTable local;
  for (std::size_t o = 0; o < arrivals.size(); ++o) {
    const SnpVirtualBatch& vb = arrivals[o];
    if (vb.size() == 0) continue;
    SnpSageGather::OriginView& view = gather.views[o];
    // Sources are deduplicated within each origin's batch only.
    local.Reset(static_cast<std::int64_t>(vb.srcs.size()));
    view.col.resize(vb.srcs.size());
    for (std::size_t i = 0; i < vb.srcs.size(); ++i) {
      const auto next = static_cast<std::int64_t>(gather.nodes.size());
      view.col[i] = local.FindOrInsert(vb.srcs[i], next);
      if (view.col[i] == next) gather.nodes.push_back(vb.srcs[i]);
    }
    view.self_base = static_cast<std::int64_t>(gather.nodes.size());
    for (std::int64_t r = 0; r < vb.size(); ++r) {
      if (vb.self_node[static_cast<std::size_t>(r)] != kInvalidNode) {
        view.self_rows.push_back(r);
        gather.nodes.push_back(vb.self_node[static_cast<std::size_t>(r)]);
      }
    }
  }
  return gather;
}

SnpGatPermute PermuteSnpGat(std::span<const DeviceBatch> batches, const SnpRoute& route) {
  const auto c = static_cast<DeviceId>(batches.size());
  SnpGatPermute perm;
  perm.requests.assign(static_cast<std::size_t>(c),
                       std::vector<SnpZRequest>(static_cast<std::size_t>(c)));
  perm.positions.assign(static_cast<std::size_t>(c),
                        std::vector<std::vector<std::int64_t>>(static_cast<std::size_t>(c)));
  for (DeviceId o = 0; o < c; ++o) {
    const Block& b = Layer0(batches[static_cast<std::size_t>(o)]);
    for (std::int64_t i = 0; i < b.num_src(); ++i) {
      const NodeId v = b.src_nodes[static_cast<std::size_t>(i)];
      const auto g = static_cast<std::size_t>(route(o, v));
      perm.requests[static_cast<std::size_t>(o)][g].nodes.push_back(v);
      perm.positions[static_cast<std::size_t>(o)][g].push_back(i);
    }
  }
  return perm;
}

SnpGatGather GatherSnpGat(std::span<const SnpZRequest> arrivals) {
  SnpGatGather gather;
  gather.base.resize(arrivals.size(), 0);
  for (std::size_t o = 0; o < arrivals.size(); ++o) {
    gather.base[o] = static_cast<std::int64_t>(gather.nodes.size());
    gather.nodes.insert(gather.nodes.end(), arrivals[o].nodes.begin(),
                        arrivals[o].nodes.end());
  }
  return gather;
}

Routed<DnpDstBatch> PermuteDnp(std::span<const DeviceBatch> batches,
                               std::span<const PartId> partition) {
  const std::size_t c = batches.size();
  Routed<DnpDstBatch> sends(c, std::vector<DnpDstBatch>(c));
  for (std::size_t o = 0; o < c; ++o) {
    const Block& b = Layer0(batches[o]);
    for (std::int64_t i = 0; i < b.num_dst; ++i) {
      const NodeId dst = b.src_nodes[static_cast<std::size_t>(i)];
      const auto g = static_cast<std::size_t>(partition[static_cast<std::size_t>(dst)]);
      DnpDstBatch& db = sends[o][g];
      if (db.src_indptr.empty()) db.src_indptr.push_back(0);
      db.dst_local.push_back(i);
      db.dst_global.push_back(dst);
      for (std::int64_t e = b.indptr[static_cast<std::size_t>(i)];
           e < b.indptr[static_cast<std::size_t>(i) + 1]; ++e) {
        db.srcs.push_back(
            b.src_nodes[static_cast<std::size_t>(b.col[static_cast<std::size_t>(e)])]);
      }
      db.src_indptr.push_back(static_cast<std::int64_t>(db.srcs.size()));
    }
  }
  return sends;
}

Block DnpOwnerBlock(std::span<const DnpDstBatch> arrivals) {
  // Destination rows come first (Block prefix convention); each record keeps
  // its own row even if the same node arrives from two origins, because its
  // sampled edge lists differ per origin.
  Block lb;
  for (const DnpDstBatch& db : arrivals) {
    lb.src_nodes.insert(lb.src_nodes.end(), db.dst_global.begin(), db.dst_global.end());
  }
  lb.num_dst = static_cast<std::int64_t>(lb.src_nodes.size());
  lb.indptr.push_back(0);
  // Sources are deduplicated within each origin's batch only (one DGL gather
  // per arriving batch). Destination prefix rows are never shared as source
  // slots: duplicate destinations from different origins keep distinct rows
  // and distinct edge lists.
  NodeTable local;
  for (const DnpDstBatch& db : arrivals) {
    local.Reset(static_cast<std::int64_t>(db.srcs.size()));
    for (std::int64_t r = 0; r < db.size(); ++r) {
      for (std::int64_t e = db.src_indptr[static_cast<std::size_t>(r)];
           e < db.src_indptr[static_cast<std::size_t>(r) + 1]; ++e) {
        const NodeId u = db.srcs[static_cast<std::size_t>(e)];
        const auto next = static_cast<std::int64_t>(lb.src_nodes.size());
        const std::int64_t id = local.FindOrInsert(u, next);
        if (id == next) lb.src_nodes.push_back(u);
        lb.col.push_back(id);
      }
      lb.indptr.push_back(static_cast<std::int64_t>(lb.col.size()));
    }
  }
  return lb;
}

}  // namespace apt
