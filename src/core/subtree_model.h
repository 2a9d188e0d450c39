#ifndef PRESTROID_CORE_SUBTREE_MODEL_H_
#define PRESTROID_CORE_SUBTREE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/model_blocks.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace prestroid::core {

/// Hyper-parameters of the Prestroid sub-tree model (paper notation
/// N-K-P_f). The P_f dimension is implied by `feature_dim` (the encoder's
/// node width already includes the P_f-wide predicate block).
struct SubtreeModelConfig {
  size_t feature_dim = 0;   // node-feature width F
  size_t node_limit = 15;   // N: max nodes per sub-tree
  size_t num_subtrees = 9;  // K: sub-trees per query
  std::vector<size_t> conv_channels = {512, 512, 512};
  std::vector<size_t> dense_units = {128, 64};
  float dropout = 0.1f;
  bool batch_norm = true;
  float learning_rate = 1e-4f;
  float huber_delta = 1.0f;
  /// Number of regression targets. 1 = the paper's total-CPU-time objective;
  /// >1 enables the multi-objective extension (e.g. {CPU, peak memory,
  /// input bytes}), all trained jointly under one Huber loss.
  size_t output_dim = 1;
  uint64_t seed = 1;
  std::string name = "Prestroid";
};

/// The paper's core contribution: per-query K sub-trees of <= N nodes run
/// through a shared tree-convolution trunk, vote-masked dynamic pooling per
/// sub-tree, flattened across sub-trees, then a dense sigmoid head.
class SubtreeModel : public CostModel {
 public:
  explicit SubtreeModel(const SubtreeModelConfig& config);

  /// Adds one featurized sample (the first K sub-trees from the Featurizer;
  /// missing ones pool to zero) with its normalized target (output_dim must
  /// be 1).
  void AddSample(std::vector<TreeFeatures> subtrees, float target);

  /// Multi-objective variant: `targets` holds output_dim normalized values.
  void AddSampleMulti(std::vector<TreeFeatures> subtrees,
                      const std::vector<float>& targets);

  /// Predicts all output_dim objectives: [indices.size(), output_dim].
  Tensor PredictMulti(const std::vector<size_t>& indices);

  /// Fused eval-mode forward over borrowed samples — each element is one
  /// query's sub-tree set, read in place with no staging copies and no
  /// mutation of the training-sample store. Returns the first objective per
  /// sample; results are identical to staging + Predict() (eval mode is
  /// per-row independent). This is the batched-serving hot path.
  std::vector<float> PredictBorrowed(
      const std::vector<const std::vector<TreeFeatures>*>& samples);

  /// Removes the most recently added sample (used to stage transient
  /// inference-only samples).
  void PopSample();

  // CostModel:
  std::string name() const override { return config_.name; }
  size_t num_samples() const override { return samples_.size(); }
  double TrainEpoch(const std::vector<size_t>& indices,
                    size_t batch_size) override;
  std::vector<float> Predict(const std::vector<size_t>& indices) override;
  size_t NumParameters() const override;
  std::vector<ParamRef> Params() override { return optimizer_->params(); }
  std::vector<ParamRef> State() override { return head_->State(); }
  void ScaleLearningRate(float factor) override {
    optimizer_->set_lr(optimizer_->lr() * factor);
  }
  void SerializeOptimizerState(std::ostream& os) const override {
    optimizer_->SerializeState(os);
  }
  Status DeserializeOptimizerState(std::istream& is) override {
    return optimizer_->DeserializeState(is);
  }
  /// Binds `ctx` on every layer of the trunk, pooling and head.
  void SetExecutionContext(ExecutionContext* ctx) override;
  ExecutionContext* execution_context() override { return ctx_; }
  void CollectFreezableLayers(std::vector<FreezableLayer*>* out) override {
    conv_->CollectFreezableLayers(out);
    head_->CollectFreezableLayers(out);
  }

  /// Bytes of the paper's padded input tensor for one batch (Figure 6 top):
  /// batch * K * N * F * sizeof(float). This is the paper's footprint
  /// metric, not what the kernels stage: the flat TreeBatch holds real node
  /// rows only.
  size_t InputBytesPerBatch(size_t batch_size) const;

  const SubtreeModelConfig& config() const { return config_; }
  const std::vector<float>& targets() const { return targets_; }

 private:
  /// Eval- or train-mode forward over samples [start, end): packs each
  /// sample's first K sub-trees (missing ones as empty trees) into batch_ws_
  /// and runs the trunk, pooling and head. Returns [end - start, output_dim].
  const Tensor& ForwardSamples(
      const std::vector<const std::vector<TreeFeatures>*>& samples,
      size_t start, size_t end);
  /// The stored samples at `indices`, as ForwardSamples input.
  std::vector<const std::vector<TreeFeatures>*> StoredSamples(
      const std::vector<size_t>& indices) const;

  SubtreeModelConfig config_;
  Rng rng_;
  std::unique_ptr<TreeConvStack> conv_;
  MaskedDynamicPooling pooling_;
  std::unique_ptr<DenseHead> head_;
  std::unique_ptr<AdamOptimizer> optimizer_;
  HuberLoss loss_;
  ExecutionContext* ctx_ = nullptr;

  std::vector<std::vector<TreeFeatures>> samples_;
  std::vector<float> targets_;
  // Per-batch workspaces reused across batches.
  TreeBatch batch_ws_;                         // B*K trees, real rows only
  std::vector<const TreeFeatures*> trees_ws_;  // [B*K], null = missing
  Tensor target_ws_;                           // [B, output_dim]
  Tensor grad_ws_;                             // [B, output_dim]
  Tensor grad_pooled_ws_;                      // [B*K, C]
};

}  // namespace prestroid::core

#endif  // PRESTROID_CORE_SUBTREE_MODEL_H_
