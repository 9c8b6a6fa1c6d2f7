// Permute: how SNP and DNP split each origin's layer-1 graph into the records
// they ship to other devices, and which feature rows each receiving device
// gathers. The executors and the planner's dry-run call the same functions,
// so every volume the cost model predicts is a volume the executors move
// (DESIGN.md invariant 2).
//
// Records are indexed sends[o][g]: what origin o ships to device g. An
// all-to-all (Communicator::AllToAllObjects, or just Transpose for a dry-run
// that moves nothing) turns them into arrivals[g][o].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "engine/engine_types.h"
#include "sampling/block.h"
#include "sim/hardware.h"

namespace apt {

template <typename T>
using Routed = std::vector<std::vector<T>>;

/// SNP routing rule: the device that processes source node u of origin o's
/// layer-1 graph. Normally u's partition owner. `machine_local` is the
/// HYBRID routing the paper's conclusion proposes as future work
/// (EngineOptions::hybrid_intra_machine): an owner on ANOTHER machine is
/// replaced by the origin itself (GDP-style), so no hidden embedding ever
/// crosses the inter-machine network.
struct SnpRoute {
  std::span<const PartId> partition;
  const ClusterSpec* cluster = nullptr;
  bool machine_local = false;

  DeviceId operator()(DeviceId origin, NodeId u) const;
};

// ---- SNP + GraphSAGE -------------------------------------------------------

/// Virtual-node batch shipped from origin o to source-owner g.
struct SnpVirtualBatch {
  std::vector<std::int64_t> dst_local;   ///< row in origin's layer-1 output
  std::vector<std::int64_t> deg_total;   ///< destination's total sampled degree
  std::vector<NodeId> self_node;         ///< kInvalidNode, or dst id if owner(d)==g
  std::vector<std::int64_t> src_indptr;  ///< per virtual node (size n+1)
  std::vector<NodeId> srcs;              ///< global source ids

  std::int64_t size() const { return static_cast<std::int64_t>(dst_local.size()); }
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(
        dst_local.size() * 8 + deg_total.size() * 8 + self_node.size() * 8 +
        src_indptr.size() * 8 + srcs.size() * 8);
  }
};

/// One virtual node per (destination, device routed any of its sources or
/// its self term).
Routed<SnpVirtualBatch> PermuteSnpSage(std::span<const DeviceBatch> batches,
                                       const SnpRoute& route);

/// A device's one batched feature gather over the virtual-node batches that
/// arrived from every origin (DGL-style): per origin, its unique sources,
/// then the rows of the destinations whose self term is computed here.
struct SnpSageGather {
  struct OriginView {
    std::vector<std::int64_t> col;        ///< edge -> row in `nodes`
    std::int64_t self_base = 0;           ///< first self row in `nodes`
    std::vector<std::int64_t> self_rows;  ///< virtual rows with a self term
  };
  std::vector<NodeId> nodes;
  std::vector<OriginView> views;  ///< per origin
};
SnpSageGather GatherSnpSage(std::span<const SnpVirtualBatch> arrivals);

// ---- SNP + GAT -------------------------------------------------------------

/// Node-id request batch: origin asks owner for projected (z) rows.
struct SnpZRequest {
  std::vector<NodeId> nodes;

  std::int64_t size() const { return static_cast<std::int64_t>(nodes.size()); }
  std::int64_t bytes() const { return static_cast<std::int64_t>(nodes.size() * 8); }
};

struct SnpGatPermute {
  Routed<SnpZRequest> requests;
  /// positions[o][g][k]: row in origin o's layer-1 source list of the k-th
  /// node o requests from g (stays at the origin for reassembly).
  Routed<std::vector<std::int64_t>> positions;
};

/// Every layer-1 source node's z row is requested from the device it routes to.
SnpGatPermute PermuteSnpGat(std::span<const DeviceBatch> batches, const SnpRoute& route);

/// The arriving requests concatenated; base[o] = first row of origin o's.
struct SnpGatGather {
  std::vector<NodeId> nodes;
  std::vector<std::int64_t> base;
};
SnpGatGather GatherSnpGat(std::span<const SnpZRequest> arrivals);

// ---- DNP -------------------------------------------------------------------

/// Destination records shipped from origin o to owner g.
struct DnpDstBatch {
  std::vector<std::int64_t> dst_local;   ///< row in origin's layer-1 output
  std::vector<NodeId> dst_global;
  std::vector<std::int64_t> src_indptr;  ///< size n+1
  std::vector<NodeId> srcs;              ///< global source ids (per edge)

  std::int64_t size() const { return static_cast<std::int64_t>(dst_local.size()); }
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(dst_local.size() * 8 + dst_global.size() * 8 +
                                     src_indptr.size() * 8 + srcs.size() * 8);
  }
};

/// Each destination travels, with its full sampled edge list, to its owner.
Routed<DnpDstBatch> PermuteDnp(std::span<const DeviceBatch> batches,
                               std::span<const PartId> partition);

/// The owner-local layer-1 block over the arriving records. Its src_nodes
/// are the owner's gather list: one destination row per record (grouped by
/// origin), then each origin's unique sources.
Block DnpOwnerBlock(std::span<const DnpDstBatch> arrivals);

}  // namespace apt
