// Mini-batch seed scheduling.
//
// An epoch enumerates all training seeds once, shuffled by an epoch-indexed
// Rng so every strategy sees the *same* seed order for the same epoch —
// the property the paper's semantic-equivalence claim (Fig 6) rests on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/random.h"
#include "core/types.h"

namespace apt {

/// Partition-local seed queues (DistDGL-style): each device iterates the
/// training seeds of ITS OWN graph partition, shuffled per epoch, consuming
/// `batch_size` per step — so per-step work is balanced even when partition
/// sizes differ. Returns one shuffled queue per device.
std::vector<std::vector<NodeId>> PerDeviceEpochQueues(
    std::span<const NodeId> seeds, std::span<const PartId> partition,
    std::int32_t num_devices, std::int64_t epoch, std::uint64_t seed = 1234);

/// Steps needed to drain the longest of `queues` at batch_size per step.
std::int64_t QueueStepsPerEpoch(std::span<const std::vector<NodeId>> queues,
                                std::int64_t batch_size);

/// The slice of queue `q` consumed at `step` (may be empty near the end).
std::span<const NodeId> QueueStepSlice(const std::vector<NodeId>& q,
                                       std::int64_t step, std::int64_t batch_size);

class MinibatchPlan {
 public:
  /// batch_size is *per device*, matching the paper's "mini-batch size of
  /// 1024 for each GPU": one global step consumes batch_size * num_devices
  /// seeds.
  MinibatchPlan(std::vector<NodeId> seeds, std::int64_t batch_size_per_device,
                std::int32_t num_devices, std::uint64_t seed = 1234);

  /// Seeds for this epoch, shuffled deterministically by epoch index.
  std::vector<NodeId> EpochSeeds(std::int64_t epoch) const;

  /// Number of global steps per epoch (ceil division).
  std::int64_t StepsPerEpoch() const;

  /// Seeds consumed by step `step` of an epoch (a slice of EpochSeeds).
  /// Returned as a vector because the shuffled order is epoch-local.
  std::vector<NodeId> StepSeeds(std::span<const NodeId> epoch_seeds,
                                std::int64_t step) const;

  std::int64_t batch_size_per_device() const { return batch_size_; }
  std::int32_t num_devices() const { return num_devices_; }
  std::int64_t num_seeds() const { return static_cast<std::int64_t>(seeds_.size()); }
  std::span<const NodeId> seeds() const { return seeds_; }
  std::uint64_t seed() const { return seed_; }

 private:
  std::vector<NodeId> seeds_;
  std::int64_t batch_size_;
  std::int32_t num_devices_;
  std::uint64_t seed_;
};

}  // namespace apt
