// Helpers shared by all strategy executors.
#pragma once

#include <vector>

#include "engine/engine_ctx.h"
#include "sampling/minibatch.h"

namespace apt {

/// Splits a global step's seeds across `num_devices` devices per the
/// assignment policy (contiguous chunks, or each seed to its partition owner).
std::vector<std::vector<NodeId>> AssignSeeds(std::span<const NodeId> step_seeds,
                                             SeedAssignment assignment,
                                             std::span<const PartId> partition,
                                             std::int32_t num_devices);
/// The same, with the policy, partition and device count taken from `ctx`.
std::vector<std::vector<NodeId>> AssignSeeds(const EngineCtx& ctx,
                                             std::span<const NodeId> step_seeds);

/// One epoch's seed schedule, shared by ParallelTrainer::TrainEpoch and the
/// planner's dry-run. Chunked mode slices `plan`'s globally shuffled order;
/// partition mode gives each device its own shuffled partition-local queue
/// (DistDGL-style), so every step is balanced at batch_size per device.
/// `plan` and `partition` must outlive the schedule.
class EpochSeedSchedule {
 public:
  EpochSeedSchedule(const MinibatchPlan& plan, SeedAssignment assignment,
                    std::span<const PartId> partition, std::int64_t epoch);

  std::int64_t steps() const { return steps_; }
  /// Per-device seeds of `step`.
  std::vector<std::vector<NodeId>> StepSeeds(std::int64_t step) const;

 private:
  const MinibatchPlan* plan_;
  SeedAssignment assignment_;
  std::span<const PartId> partition_;
  std::vector<NodeId> epoch_seeds_;           ///< chunked mode
  std::vector<std::vector<NodeId>> queues_;  ///< partition mode
  std::int64_t steps_ = 0;
};

/// Samples each device's blocks (charging simulated sampling time) and looks
/// up seed labels. rng streams are forked per device for determinism.
std::vector<DeviceBatch> SampleDeviceBatches(
    EngineCtx& ctx, const std::vector<std::vector<NodeId>>& seeds_per_device,
    Rng& step_rng);

/// Per-device softmax cross-entropy on seed logits. Scales the gradient by
/// (device seeds / total seeds) so the later *sum* allreduce yields the
/// global-mean gradient regardless of per-device batch imbalance.
StepStats SeedLossAndGrad(const DeviceBatch& batch, const Tensor& logits,
                          std::int64_t total_seeds, Tensor& grad_logits);

/// DDP gradient synchronization: packs every replica's grads into one flat
/// tensor, ring-allreduces, unpacks. Charged to kTrain.
void AllReduceGradients(EngineCtx& ctx);

/// Forward+backward flops of `model`'s layers first_layer.. over `blocks`.
double StepFlops(const GnnModel& model, std::span<const Block> blocks, int first_layer);

/// Charges simulated compute time for a full local forward+backward over a
/// device's block stack (used by layers the strategy does not distribute).
void ChargeStepCompute(EngineCtx& ctx, DeviceId dev, std::span<const Block> blocks,
                       int first_layer);

/// Simulated cost of sampling `batch` on `dev` (UVA edge traversals).
double SampleSeconds(const ClusterSpec& cluster, DeviceId dev, const SampledBatch& batch);

/// Size of the per-seed expansion multiset tree of `batch` (the number of
/// UVA topology reads sampling performs; see the definition in the .cpp).
double SampleTreeEdges(const SampledBatch& batch);

}  // namespace apt
