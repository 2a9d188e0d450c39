#ifndef PRESTROID_NN_TREE_CONV_H_
#define PRESTROID_NN_TREE_CONV_H_

#include <vector>

#include "nn/layer.h"
#include "util/random.h"

namespace prestroid {

/// A batch of binary trees laid out as one flat run of real node rows, with
/// no padding slots (the paper's N-node / K-sub-tree padding survives only
/// as a byte metric; see SubtreeModel::InputBytesPerBatch).
///
/// Tree t owns rows [offsets[t], offsets[t + 1]); a tree may own no rows at
/// all (a missing sub-tree), and then pools to the zero vector. `left[r]` /
/// `right[r]` give the batch-global row of row r's children, or -1 for a
/// null child (the Ø nodes of the O-T-P re-cast); children always lie in
/// their parent's tree. `votes[r]` is the pooling mask: the sub-tree votes
/// of Algorithm 1 (1.0 for every node of a full tree); a vote of 0 masks a
/// real node out of dynamic pooling.
struct TreeBatch {
  Tensor features;                    // [rows, feature_dim]
  std::vector<size_t> offsets = {0};  // num_trees + 1 row offsets
  std::vector<int> left;              // [rows]
  std::vector<int> right;             // [rows]
  std::vector<float> votes;           // [rows]

  size_t num_trees() const { return offsets.size() - 1; }
  size_t num_rows() const { return left.size(); }

  /// Empties the batch and sizes `features` to [rows, feature_dim] for the
  /// AddTree calls that follow. Keeps every buffer's capacity.
  void Reset(size_t rows, size_t feature_dim);
  /// Appends one tree of `count` nodes (count may be 0): its feature rows
  /// ([count, feature_dim] row-major), tree-local child indices (-1 = none)
  /// and votes. The rows must fit in the size given to Reset().
  void AddTree(const float* features, size_t count, const int* left,
               const int* right, const float* votes);
};

/// Tree convolution with triangular kernels (Mou et al. 2016), the
/// parent/left-child/right-child sliding window used by Neo and Prestroid,
/// with the ReLU that follows every convolution fused in:
///
///   out[r] = max(0, x[r] W_self + x[left(r)] W_left + x[right(r)] W_right + b)
///
/// Null children contribute zero. Input [rows, in] -> output [rows, out] over
/// the real node rows of a TreeBatch. `features` and the batch must stay
/// alive until Backward() completes (the layer keeps pointers, not copies).
///
/// Two implementations, selected by the context's KernelRegistry (kTreeConv):
///
///  - scalar: the historical per-node loops, kept as the bit-exact
///    reproducibility baseline (tree by tree, node by node, self/left/right
///    in that order, then the ReLU on the finished row). Forward
///    parallelizes over trees (disjoint output rows, per-element float order
///    unchanged); Backward parallelizes over trees with per-chunk scratch
///    weight-gradient accumulators reduced in ascending chunk order.
///  - blocked: an im2col-style lowering. Each row's (self, left, right)
///    window is gathered into a packed [rows, 3*in] matrix (zeros for null
///    children), the three position kernels are stacked into one
///    [3*in, out] operand, and the whole convolution becomes a single GEMM
///    with a fused bias+ReLU epilogue; Backward reduces to two GEMMs (weight
///    gradients via A^T B over the packed windows, input gradients via
///    g W^T scattered back through the window map). Agrees with scalar to
///    ~1e-5 relative (DESIGN.md §5.3).
///
/// Both backends compute every output row from its own window only, so a
/// row's result does not depend on which other trees share the batch.
/// Backward masks the incoming gradient on the layer's own output
/// (out > 0), which is the ReLU derivative.
///
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

  /// `features` is [batch.num_rows(), in]: batch.features for the first
  /// layer of a stack, the previous layer's output after that.
  Tensor& Forward(const Tensor& features, const TreeBatch& batch);
  /// Given dL/d(output), returns dL/d(features) and accumulates weight
  /// gradients.
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
  void ForwardScalar();
  void ForwardBlocked();
  void BackwardScalar();
  void BackwardBlocked();

  /// Blocked-path helpers: gather (self, left, right) windows into
  /// packed_input_ and stack the position kernels into wcat_.
  void GatherWindows();
  void StackWeights();

  size_t in_features_;
  size_t out_features_;
  Tensor w_self_, w_left_, w_right_;  // each [in, out]
  Tensor bias_;                       // [out]
  Tensor w_self_grad_, w_left_grad_, w_right_grad_;
  Tensor bias_grad_;
  // The last Forward's operands (borrowed; see the class comment).
  const Tensor* input_ = nullptr;
  const TreeBatch* batch_ = nullptr;
  ExecutionContext* ctx_ = ExecutionContext::Serial();
  Tensor output_;      // [rows, out], after the ReLU
  Tensor grad_input_;  // [rows, in]
  Tensor gy_;          // [rows, out] grad_output masked by the ReLU
  // Blocked-path workspaces (empty until the blocked backend runs; reused
  // across batches once warm).
  Tensor packed_input_;  // [rows, 3*in] gathered windows
  Tensor wcat_;          // [3*in, out] stacked (self, left, right) kernels
  Tensor wgcat_;         // [3*in, out] stacked weight gradients
  Tensor gxp_;           // [rows, 3*in] window-space input gradients
  Tensor bias_tmp_;      // [out] per-call bias-gradient accumulator

  const Tensor& GemmWeights() override {
    StackWeights();
    return wcat_;
  }
};

/// One-way dynamic pooling with vote bit-masking (paper Section 4.1): the
/// elementwise max over each tree's rows whose vote is nonzero.
/// [rows, features] -> [num_trees, features]. A tree with no voting row (all
/// votes zero, or no rows at all) pools to the zero vector.
class MaskedDynamicPooling {
 public:
  Tensor& Forward(const Tensor& features, const TreeBatch& batch);
  Tensor& Backward(const Tensor& grad_output);

  void set_context(ExecutionContext* ctx) {
    ctx_ = ctx != nullptr ? ctx : ExecutionContext::Serial();
  }

 private:
  std::vector<int> argmax_;  // [trees*features] batch row of the max, or -1
  size_t input_rows_ = 0;
  size_t dims_ = 0;
  ExecutionContext* ctx_ = ExecutionContext::Serial();
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace prestroid

#endif  // PRESTROID_NN_TREE_CONV_H_
