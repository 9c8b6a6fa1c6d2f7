// Abstract GNN layer interface consumed by the unified execution engine.
//
// A layer computes destination embeddings for one bipartite Block from
// source embeddings. Forward returns a per-call context object holding the
// saved activations Backward needs, so a single layer replica can be driven
// over many blocks per step (the engine runs one replica per device).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/param.h"
#include "tensor/segment_ops.h"
#include "tensor/tensor.h"

namespace apt {

/// Whether a layer's Backward also produces the gradient w.r.t. its input.
/// Layer 0's input is the raw features, whose gradient nothing reads, so
/// its callers pass kSkip and only parameter grads are computed.
enum class InputGrad { kSkip, kCompute };

/// Opaque saved-activation holder; each layer defines its own subclass.
class LayerContext {
 public:
  virtual ~LayerContext() = default;
};

class GnnLayer {
 public:
  virtual ~GnnLayer() = default;

  /// input is [num_src, in_dim]; the first num_dst rows are the destination
  /// nodes' own embeddings (Block prefix convention). Returns
  /// [num_dst, out_dim]; `saved` receives the context for Backward. The
  /// input is consumed: it is moved into the saved context, which Backward
  /// reads it from. Pass std::move(x) when the caller no longer needs x; an
  /// lvalue argument pays one copy at the call site.
  virtual Tensor Forward(const CsrView& csr, std::int64_t num_dst, Tensor input,
                         std::unique_ptr<LayerContext>* saved) = 0;

  /// Accumulates parameter grads. Returns grad_input [num_src, in_dim] for
  /// InputGrad::kCompute, an empty tensor for kSkip.
  virtual Tensor Backward(const CsrView& csr, std::int64_t num_dst,
                          const LayerContext& saved, const Tensor& grad_out,
                          InputGrad input_grad) = 0;

  virtual void CollectParams(std::vector<Param*>& out) = 0;

  virtual std::int64_t in_dim() const = 0;
  virtual std::int64_t out_dim() const = 0;

  /// Approximate flop counts for the simulator's compute-time model.
  virtual double ForwardFlops(std::int64_t num_src, std::int64_t num_dst,
                              std::int64_t num_edges) const = 0;
  virtual double BackwardFlops(std::int64_t num_src, std::int64_t num_dst,
                               std::int64_t num_edges) const = 0;
};

}  // namespace apt
