#ifndef PRESTROID_NN_LAYER_H_
#define PRESTROID_NN_LAYER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "tensor/execution_context.h"
#include "tensor/kernels/resident_weights.h"
#include "tensor/tensor.h"

namespace prestroid {

/// A trainable parameter and its gradient accumulator. Both tensors are owned
/// by the layer; the optimizer mutates `value` in place.
struct ParamRef {
  std::string name;
  Tensor* value;
  Tensor* grad;
};

/// Base class for feed-forward layers with explicit backpropagation.
///
/// Layers cache whatever they need from Forward() to compute Backward(), so a
/// layer instance processes one batch at a time (standard for this style of
/// hand-rolled NN substrate).
///
/// Forward/Backward return references to layer-owned workspace tensors that
/// stay valid until the next call on the same layer: once warm, a training
/// step performs no per-call tensor allocation. Callers that need to keep a
/// result must copy it. Kernels run through the bound ExecutionContext
/// (set_context); the default is the process-wide serial context, so
/// unbound layers behave exactly like the pre-context substrate.
class Layer {
 public:
  virtual ~Layer();

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output for `input`. The reference is to an internal
  /// workspace, invalidated by the next Forward call.
  virtual Tensor& Forward(const Tensor& input) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input) (internal workspace, invalidated by the next Backward).
  /// Must be called after Forward on the same batch.
  virtual Tensor& Backward(const Tensor& grad_output) = 0;

  /// Binds the execution context used by this layer's kernels. Passing null
  /// rebinds the serial default. The context must outlive the layer's use.
  void set_context(ExecutionContext* ctx) {
    ctx_ = ctx != nullptr ? ctx : ExecutionContext::Serial();
  }
  ExecutionContext* context() const { return ctx_; }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> Params() { return {}; }

  /// Non-trainable buffers that must survive serialization (e.g. batch-norm
  /// running statistics). The `grad` field aliases `value` and is unused.
  virtual std::vector<ParamRef> State() { return {}; }

  /// Switches train/eval behaviour (dropout, batch-norm).
  virtual void SetTraining(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Total number of trainable scalars (used for the paper's
  /// parameter-count comparisons, e.g. WCNN-100 = 363,301 params).
  size_t NumParameters();

 protected:
  bool training_ = true;
  ExecutionContext* ctx_ = ExecutionContext::Serial();
};

/// Sums parameter counts across a set of layers.
size_t TotalParameters(const std::vector<Layer*>& layers);

/// A layer whose eval-mode forward is one GEMM against a weight operand that
/// can be frozen into resident packed fp32 panels
/// (tensor/kernels/resident_weights.h), so serving never repacks weights
/// per request. Frozen forwards are bit-identical to the blocked backend's
/// per-call-packing path. Dense and TreeConvLayer implement it; models list
/// theirs via CostModel::CollectFreezableLayers.
class FreezableLayer {
 public:
  FreezableLayer() = default;
  FreezableLayer(const FreezableLayer&) = delete;
  FreezableLayer& operator=(const FreezableLayer&) = delete;
  virtual ~FreezableLayer() = default;

  /// Packs the current weights. Training must not run while frozen —
  /// Backward() CHECK-fails. Call again after a weight change to re-freeze.
  void FreezeWeights() {
    resident_ = std::make_unique<ResidentWeights>(
        ResidentWeights::Build(GemmWeights()));
  }
  /// Drops the panels; forwards take the per-call path again.
  void ThawWeights() { resident_.reset(); }
  bool frozen() const { return resident_ != nullptr; }
  /// Bytes of the resident panels; 0 when not frozen.
  size_t resident_weight_bytes() const {
    return frozen() ? resident_->resident_bytes() : 0;
  }

 protected:
  /// The row-major [k, n] GEMM weight operand the eval forward multiplies by.
  virtual const Tensor& GemmWeights() = 0;

  std::unique_ptr<ResidentWeights> resident_;
};

}  // namespace prestroid

#endif  // PRESTROID_NN_LAYER_H_
