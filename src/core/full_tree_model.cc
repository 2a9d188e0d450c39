#include "core/full_tree_model.h"

#include <algorithm>

#include "util/logging.h"

namespace prestroid::core {

FullTreeModel::FullTreeModel(const FullTreeModelConfig& config)
    : config_(config), rng_(config.seed), loss_(config.huber_delta) {
  PRESTROID_CHECK_GT(config_.feature_dim, 0u);
  conv_ = std::make_unique<TreeConvStack>(config_.feature_dim,
                                          config_.conv_channels, &rng_);
  DenseHeadConfig head_config;
  head_config.input_dim = conv_->output_dim();
  head_config.hidden = config_.dense_units;
  head_config.dropout = config_.dropout;
  head_config.batch_norm = config_.batch_norm;
  head_ = std::make_unique<DenseHead>(head_config, &rng_);
  optimizer_ = std::make_unique<AdamOptimizer>(config_.learning_rate);
  optimizer_->Register(conv_->Params());
  optimizer_->Register(head_->Params());
}

void FullTreeModel::AddSample(TreeFeatures tree, float target) {
  PRESTROID_CHECK(!finalized_);
  PRESTROID_CHECK_EQ(tree.features.dim(1), config_.feature_dim);
  max_nodes_ = std::max(max_nodes_, tree.num_nodes());
  samples_.push_back(std::move(tree));
  targets_.push_back(target);
}

void FullTreeModel::Finalize() {
  PRESTROID_CHECK(!samples_.empty());
  finalized_ = true;
}

void FullTreeModel::SetExecutionContext(ExecutionContext* ctx) {
  ctx_ = ctx;
  conv_->BindContext(ctx);
  pooling_.set_context(ctx);
  head_->BindContext(ctx);
}

std::vector<const TreeFeatures*> FullTreeModel::StoredTrees(
    const std::vector<size_t>& indices) const {
  std::vector<const TreeFeatures*> trees;
  trees.reserve(indices.size());
  for (size_t idx : indices) trees.push_back(&samples_[idx]);
  return trees;
}

const Tensor& FullTreeModel::ForwardTrees(
    const std::vector<const TreeFeatures*>& trees, size_t start, size_t end) {
  PRESTROID_CHECK(finalized_);
  trees_ws_.assign(trees.begin() + static_cast<long>(start),
                   trees.begin() + static_cast<long>(end));
  AssembleTreeBatch(trees_ws_, config_.feature_dim, &batch_ws_);
  const Tensor& conv_out = conv_->Forward(batch_ws_);
  const Tensor& pooled = pooling_.Forward(conv_out, batch_ws_);  // [B, C]
  return head_->Forward(pooled);
}

std::vector<float> FullTreeModel::PredictBorrowed(
    const std::vector<const TreeFeatures*>& samples) {
  head_->SetTraining(false);
  std::vector<float> out;
  out.reserve(samples.size());
  constexpr size_t kEvalBatch = 32;
  for (size_t start = 0; start < samples.size(); start += kEvalBatch) {
    const size_t end = std::min(samples.size(), start + kEvalBatch);
    const Tensor& pred = ForwardTrees(samples, start, end);
    for (size_t i = 0; i < end - start; ++i) out.push_back(pred[i]);
  }
  head_->SetTraining(true);
  return out;
}

double FullTreeModel::TrainEpoch(const std::vector<size_t>& indices,
                                 size_t batch_size) {
  PRESTROID_CHECK_GT(batch_size, 0u);
  head_->SetTraining(true);
  const std::vector<const TreeFeatures*> trees = StoredTrees(indices);
  double total_loss = 0.0;
  size_t num_batches = 0;
  for (size_t start = 0; start < indices.size(); start += batch_size) {
    const size_t end = std::min(indices.size(), start + batch_size);
    const Tensor& pred = ForwardTrees(trees, start, end);

    target_ws_.ResetShape({end - start, 1});
    for (size_t i = start; i < end; ++i) {
      target_ws_[i - start] = targets_[indices[i]];
    }

    optimizer_->ZeroGrad();
    total_loss += loss_.Compute(pred, target_ws_);
    ++num_batches;

    loss_.GradientInto(&grad_ws_);
    const Tensor& grad_head = head_->Backward(grad_ws_);
    const Tensor& grad_conv = pooling_.Backward(grad_head);
    conv_->Backward(grad_conv);
    optimizer_->Step();
  }
  return num_batches == 0 ? 0.0 : total_loss / static_cast<double>(num_batches);
}

std::vector<float> FullTreeModel::Predict(const std::vector<size_t>& indices) {
  return PredictBorrowed(StoredTrees(indices));
}

size_t FullTreeModel::NumParameters() const {
  return conv_->NumParameters() + head_->NumParameters();
}

size_t FullTreeModel::InputBytesPerBatch(size_t batch_size) const {
  return batch_size * max_nodes_ * config_.feature_dim * sizeof(float);
}

}  // namespace prestroid::core
