// Unified feature store over the simulated memory hierarchy (paper §4.2).
//
// Node features live in CPU memory, partitioned across machines; each GPU
// caches the rows its strategy expects to touch most. A gather request is
// served tier by tier — own GPU cache, peer GPU (NVLink only), local CPU,
// remote CPU — with real row copies plus simulated transfer time per tier.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/node_table.h"
#include "core/types.h"
#include "sim/sim_context.h"
#include "tensor/codec.h"
#include "tensor/tensor.h"

namespace apt {

/// Where a feature row was served from.
enum class FeatureTier : int {
  kGpuCache = 0,
  kPeerGpu = 1,
  kLocalCpu = 2,
  kRemoteCpu = 3,
};
inline constexpr int kNumFeatureTiers = 4;

const char* ToString(FeatureTier t);

/// Byte counts per tier for one gather (or accumulated over an epoch);
/// the raw material of the cost model's T_load. `bytes` is the LOGICAL
/// (fp32) volume; `wire_bytes` is what actually moves when the store keeps
/// rows in compressed form (== bytes under the identity codec).
struct LoadVolume {
  std::array<std::int64_t, kNumFeatureTiers> bytes{};
  std::array<std::int64_t, kNumFeatureTiers> wire_bytes{};
  std::array<std::int64_t, kNumFeatureTiers> rows{};

  void Add(const LoadVolume& o) {
    for (int i = 0; i < kNumFeatureTiers; ++i) {
      bytes[static_cast<std::size_t>(i)] += o.bytes[static_cast<std::size_t>(i)];
      wire_bytes[static_cast<std::size_t>(i)] +=
          o.wire_bytes[static_cast<std::size_t>(i)];
      rows[static_cast<std::size_t>(i)] += o.rows[static_cast<std::size_t>(i)];
    }
  }
  /// Wire bytes for a tier, falling back to logical bytes for volumes built
  /// by hand without wire tracking (wire > 0 whenever a tracked tier served
  /// any row, so the fallback never masks real compression).
  std::int64_t WireBytes(FeatureTier t) const {
    const auto i = static_cast<std::size_t>(t);
    return wire_bytes[i] > 0 ? wire_bytes[i] : bytes[i];
  }
  std::int64_t TotalBytes() const {
    std::int64_t t = 0;
    for (auto b : bytes) t += b;
    return t;
  }
  std::int64_t TotalWireBytes() const {
    std::int64_t t = 0;
    for (int i = 0; i < kNumFeatureTiers; ++i) {
      t += WireBytes(static_cast<FeatureTier>(i));
    }
    return t;
  }
  std::int64_t CpuBytes() const {
    return bytes[static_cast<std::size_t>(FeatureTier::kLocalCpu)] +
           bytes[static_cast<std::size_t>(FeatureTier::kRemoteCpu)];
  }
};

class FeatureStore {
 public:
  /// `features` must outlive the store. `node_machine[v]` names the machine
  /// whose CPU memory holds v's feature (size == num rows of features).
  FeatureStore(const Tensor& features, std::vector<MachineId> node_machine,
               SimContext& ctx);

  /// Procedural store (scale mode): no backing matrix — row v's features are
  /// generated on demand from a hash of (seed, v, col), so 100M-node-class
  /// graphs train without materializing num_nodes x dim fp32. Deterministic
  /// and batching-independent: the same (node, col) always reads the same
  /// value, and lossy storage codecs round each generated row exactly as the
  /// materialized path rounds its stored row.
  FeatureStore(NodeId num_nodes, std::int64_t feature_dim, std::uint64_t seed,
               std::vector<MachineId> node_machine, SimContext& ctx);

  /// Selects the at-rest representation for every tier (CPU shards and GPU
  /// caches alike). A lossy codec rounds each row ONCE, at the storage tier,
  /// in fixed row-major order — every consumer then observes the identical
  /// rounded values regardless of which tier served it or how the gather was
  /// batched (the producer-side half of DESIGN.md invariant 8). With
  /// `materialize` false (dry-run scratch stores) only the byte accounting
  /// changes and no rounded copy is built; Gather must not be called then.
  /// Call before ConfigureCaches / any gather.
  void SetStorageCodec(Codec codec, bool materialize = true);
  Codec storage_codec() const { return storage_codec_; }

  /// Bytes one cached row of `width` columns occupies under the storage
  /// codec (what ConfigureCaches callers should pass per cached row).
  std::int64_t CachedRowBytes(std::int64_t width) const {
    return CodecWireBytes(storage_codec_, 1, width);
  }

  /// Installs per-device cached node sets (from a CachePolicy). For NFP the
  /// cached slice is narrower; `bytes_per_cached_row` lets the caller account
  /// the true footprint. Registers the footprint with SimContext memory.
  void ConfigureCaches(const std::vector<std::vector<NodeId>>& cache_nodes,
                       std::int64_t bytes_per_cached_row);

  /// Gathers columns [col_lo, col_hi) of `nodes` into `out` (resized by the
  /// caller to nodes.size() x (col_hi - col_lo)), charging simulated load
  /// time on `dev` and returning the per-tier volume.
  LoadVolume Gather(DeviceId dev, std::span<const NodeId> nodes, std::int64_t col_lo,
                    std::int64_t col_hi, Tensor& out);

  /// Volume-only variant used by dry-run: classifies tiers and charges
  /// nothing, copies nothing.
  LoadVolume CountGather(DeviceId dev, std::span<const NodeId> nodes,
                         std::int64_t col_lo, std::int64_t col_hi) const;

  /// Converts a volume into simulated seconds for `dev` (one latency charge
  /// per non-empty tier; bandwidth from the cluster link model).
  double LoadSeconds(DeviceId dev, const LoadVolume& volume) const;

  /// True if dev's cache holds v: one probe of the device's NodeTable of
  /// cached nodes. O(cached rows) memory per device instead of the
  /// O(num_nodes) bitmap a 100M-node procedural graph cannot afford.
  bool Cached(DeviceId dev, NodeId v) const {
    return cache_members_[static_cast<std::size_t>(dev)].Contains(v);
  }

  FeatureTier Classify(DeviceId dev, NodeId v) const;

  std::int64_t feature_dim() const {
    return procedural_ ? procedural_dim_ : features_->cols();
  }
  std::int64_t num_nodes() const {
    return procedural_ ? procedural_nodes_ : features_->rows();
  }
  bool procedural() const { return procedural_; }

 private:
  /// What classifying a read by one device needs of the cluster: its
  /// machine and the peer devices [peer_lo, peer_hi) whose caches it may
  /// read (an empty range without NVLink). Resolved once per CountGather.
  struct ReaderSite {
    DeviceId dev;
    MachineId machine;
    DeviceId peer_lo;
    DeviceId peer_hi;
  };
  ReaderSite SiteOf(DeviceId dev) const;
  FeatureTier ClassifyAt(const ReaderSite& site, NodeId v) const;

  /// The tensor gathers copy from: the caller's fp32 features under the
  /// identity codec, the rounded copy under a lossy one.
  const Tensor& served() const {
    return rounded_.numel() > 0 ? rounded_ : *features_;
  }

  const Tensor* features_;  ///< null in procedural mode
  std::vector<MachineId> node_machine_;
  SimContext* ctx_;
  Codec storage_codec_ = Codec::kIdentity;
  Tensor rounded_;  ///< codec-rounded copy (empty when identity/unmaterialized)
  std::vector<NodeTable> cache_members_;  ///< per device: the cached node set
  bool procedural_ = false;
  NodeId procedural_nodes_ = 0;
  std::int64_t procedural_dim_ = 0;
  std::uint64_t procedural_seed_ = 0;
};

/// Assigns features to machines: node v lives on the machine hosting the
/// device that owns v's partition. With one machine everything is local.
std::vector<MachineId> FeaturePlacementFromPartition(
    const std::vector<PartId>& part, const ClusterSpec& cluster);

}  // namespace apt
