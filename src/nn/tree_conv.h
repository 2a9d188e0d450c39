#ifndef PRESTROID_NN_TREE_CONV_H_
#define PRESTROID_NN_TREE_CONV_H_

#include <vector>

#include "nn/layer.h"
#include "util/random.h"

namespace prestroid {

/// Structural view of a batch of binary trees laid out as node slots.
///
/// Each tree in the batch is padded to the same `max_nodes` slot count (this
/// is exactly the 0-padding the paper studies; see FootprintOfBatch in
/// cloud/footprint.h for the byte accounting). Slot 0 is conventionally the
/// root. `left[b][i]` / `right[b][i]` give the slot index of node i's children
/// within tree b, or -1 for a null child (the Ø nodes of the O-T-P re-cast).
/// Padding slots are never reachable as children of real nodes.
struct TreeStructure {
  std::vector<std::vector<int>> left;
  std::vector<std::vector<int>> right;
  /// 1.0 for slots holding real nodes, 0.0 for padding. Also used to carry
  /// the sub-tree *votes* of Algorithm 1 (a vote of 0 masks the node out of
  /// dynamic pooling even though it is a real node).
  std::vector<std::vector<float>> mask;

  size_t batch_size() const { return left.size(); }
  size_t max_nodes() const { return left.empty() ? 0 : left[0].size(); }
};

/// Tree convolution with triangular kernels (Mou et al. 2016), the
/// parent/left-child/right-child sliding window used by Neo and Prestroid:
///
///   out[b,i] = act_in * W_self + x[left(i)] * W_left + x[right(i)] * W_right + bias
///
/// Null children contribute zero. Input [batch, max_nodes, in] ->
/// output [batch, max_nodes, out]. The structure is passed per batch and must
/// stay alive until Backward() completes.
///
/// Two implementations, selected by the context's KernelRegistry (kTreeConv):
///
///  - scalar: the historical per-node loops, kept verbatim as the bit-exact
///    reproducibility baseline. Forward parallelizes over trees (disjoint
///    output rows, per-element float order unchanged); Backward parallelizes
///    over trees with per-chunk scratch weight-gradient accumulators reduced
///    in ascending chunk order.
///  - blocked: an im2col-style lowering. Each node's (self, left, right)
///    window is gathered into a packed [batch*nodes, 3*in] matrix (zeros for
///    null children), the three position kernels are stacked into one
///    [3*in, out] operand, and the whole convolution becomes a single
///    fused-bias GEMM; Backward likewise reduces to two GEMMs (weight
///    gradients via A^T B over the packed windows, input gradients via
///    g W^T scattered back through the window map). Agrees with scalar to
///    ~1e-5 relative (DESIGN.md §5.3).
/// Freezable (nn/layer.h): FreezeWeights stacks the three position kernels
/// into the im2col operand [3*in, out] and packs it into resident panels,
/// after which Forward always takes the im2col lowering (gather + resident
/// GEMM) regardless of the kTreeConv backend choice. Backward while frozen
/// CHECK-fails.
class TreeConvLayer : public FreezableLayer {
 public:
  TreeConvLayer(size_t in_features, size_t out_features, Rng* rng);

  TreeConvLayer(const TreeConvLayer&) = delete;
  TreeConvLayer& operator=(const TreeConvLayer&) = delete;

  Tensor& Forward(const Tensor& features, const TreeStructure& structure);
  /// Returns dL/d(features). Accumulates weight gradients.
  Tensor& Backward(const Tensor& grad_output);

  /// Binds the execution context (null rebinds the serial default).
  void set_context(ExecutionContext* ctx) {
    ctx_ = ctx != nullptr ? ctx : ExecutionContext::Serial();
  }

  std::vector<ParamRef> Params();
  size_t NumParameters();

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

 private:
  /// Blocked-path helpers: gather (self, left, right) windows into
  /// packed_input_ and stack the position kernels into wcat_.
  void GatherWindows(const TreeStructure& structure);
  void StackWeights();

  Tensor& ForwardBlocked(const TreeStructure& structure);
  Tensor& BackwardBlocked(const Tensor& grad_output,
                          const TreeStructure& structure);

  size_t in_features_;
  size_t out_features_;
  Tensor w_self_, w_left_, w_right_;  // each [in, out]
  Tensor bias_;                       // [out]
  Tensor w_self_grad_, w_left_grad_, w_right_grad_;
  Tensor bias_grad_;
  Tensor input_cache_;
  const TreeStructure* structure_cache_ = nullptr;
  ExecutionContext* ctx_ = ExecutionContext::Serial();
  Tensor output_;
  Tensor grad_input_;
  // Blocked-path workspaces (empty until the blocked backend runs; reused
  // across batches once warm).
  Tensor packed_input_;  // [batch*nodes, 3*in] gathered windows
  Tensor wcat_;          // [3*in, out] stacked (self, left, right) kernels
  Tensor gy2d_;          // [batch*nodes, out] 2-D copy of grad_output
  Tensor wgcat_;         // [3*in, out] stacked weight gradients
  Tensor gxp_;           // [batch*nodes, 3*in] window-space input gradients
  Tensor bias_tmp_;      // [out] per-call bias-gradient accumulator

  const Tensor& GemmWeights() override {
    StackWeights();
    return wcat_;
  }
};

/// One-way dynamic pooling with vote bit-masking (paper Section 4.1):
/// elementwise max over the node axis restricted to slots whose mask/vote is
/// nonzero. [batch, max_nodes, features] -> [batch, features]. Trees whose
/// mask is entirely zero pool to the zero vector.
class MaskedDynamicPooling {
 public:
  Tensor& Forward(const Tensor& features, const TreeStructure& structure);
  Tensor& Backward(const Tensor& grad_output);

  void set_context(ExecutionContext* ctx) {
    ctx_ = ctx != nullptr ? ctx : ExecutionContext::Serial();
  }

 private:
  std::vector<int> argmax_;  // [batch*features] node index of max, -1 if none
  std::vector<size_t> input_shape_;
  ExecutionContext* ctx_ = ExecutionContext::Serial();
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace prestroid

#endif  // PRESTROID_NN_TREE_CONV_H_
