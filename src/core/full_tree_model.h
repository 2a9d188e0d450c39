#ifndef PRESTROID_CORE_FULL_TREE_MODEL_H_
#define PRESTROID_CORE_FULL_TREE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/model_blocks.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace prestroid::core {

/// Hyper-parameters of the Prestroid full-tree baseline (the tree-conv
/// segment of Neo; "Full-P_f" in the paper's tables).
struct FullTreeModelConfig {
  size_t feature_dim = 0;
  std::vector<size_t> conv_channels = {512, 512, 512};
  std::vector<size_t> dense_units = {128, 64};
  float dropout = 0.1f;
  bool batch_norm = true;
  float learning_rate = 1e-4f;
  float huber_delta = 1.0f;
  uint64_t seed = 2;
  std::string name = "Prestroid-Full";
};

/// Tree convolution over the complete, unpruned O-T-P tree. In the paper
/// every batch is 0-padded to the size of the LARGEST tree in the dataset
/// (the padding regime for full-tree models, Section 5.4) — exactly the
/// memory-footprint pathology Prestroid's sub-trees eliminate.
/// InputBytesPerBatch reports that padded footprint; the kernels themselves
/// run on a flat TreeBatch of real node rows only.
class FullTreeModel : public CostModel {
 public:
  explicit FullTreeModel(const FullTreeModelConfig& config);

  void AddSample(TreeFeatures tree, float target);
  /// Freezes the dataset and records the global padding size. Must be
  /// called after the last AddSample and before training.
  void Finalize();

  /// Finalizes a sample-less model with a known padding size (used when
  /// loading a serialized model for inference-only serving).
  void FinalizeEmpty(size_t max_nodes) {
    max_nodes_ = max_nodes;
    finalized_ = true;
  }

  /// Fused eval-mode forward over borrowed trees, read in place with no
  /// staging copies and no mutation of the sample store. Each tree is
  /// convolved and pooled over its own rows only, so its answer does not
  /// depend on what shares the batch, and trees larger than max_nodes()
  /// need nothing special. This is the batched-serving hot path.
  std::vector<float> PredictBorrowed(
      const std::vector<const TreeFeatures*>& samples);

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
  /// batch * max_nodes * F * sizeof(float). The paper's footprint metric,
  /// not what the kernels stage (real node rows only).
  size_t InputBytesPerBatch(size_t batch_size) const;
  size_t max_nodes() const { return max_nodes_; }

  const FullTreeModelConfig& config() const { return config_; }

 private:
  /// Eval- or train-mode forward over trees [start, end): packs them into
  /// batch_ws_ and runs the trunk, pooling and head. Returns [end - start, 1].
  const Tensor& ForwardTrees(const std::vector<const TreeFeatures*>& trees,
                             size_t start, size_t end);
  /// The stored samples at `indices`, as ForwardTrees input.
  std::vector<const TreeFeatures*> StoredTrees(
      const std::vector<size_t>& indices) const;

  FullTreeModelConfig config_;
  Rng rng_;
  std::unique_ptr<TreeConvStack> conv_;
  MaskedDynamicPooling pooling_;
  std::unique_ptr<DenseHead> head_;
  std::unique_ptr<AdamOptimizer> optimizer_;
  HuberLoss loss_;
  ExecutionContext* ctx_ = nullptr;

  std::vector<TreeFeatures> samples_;
  std::vector<float> targets_;
  size_t max_nodes_ = 0;
  bool finalized_ = false;
  // Per-batch workspaces reused across batches.
  TreeBatch batch_ws_;                         // B trees, real rows only
  std::vector<const TreeFeatures*> trees_ws_;  // [B]
  Tensor target_ws_;                           // [B, 1]
  Tensor grad_ws_;                             // [B, 1]
};

}  // namespace prestroid::core

#endif  // PRESTROID_CORE_FULL_TREE_MODEL_H_
