#include "core/subtree_model.h"

#include <algorithm>

#include "util/logging.h"

namespace prestroid::core {

SubtreeModel::SubtreeModel(const SubtreeModelConfig& config)
    : config_(config),
      rng_(config.seed),
      loss_(config.huber_delta) {
  PRESTROID_CHECK_GT(config_.feature_dim, 0u);
  PRESTROID_CHECK_GT(config_.node_limit, 0u);
  PRESTROID_CHECK_GT(config_.num_subtrees, 0u);
  conv_ = std::make_unique<TreeConvStack>(config_.feature_dim,
                                          config_.conv_channels, &rng_);
  PRESTROID_CHECK_GT(config_.output_dim, 0u);
  DenseHeadConfig head_config;
  head_config.input_dim = config_.num_subtrees * conv_->output_dim();
  head_config.hidden = config_.dense_units;
  head_config.dropout = config_.dropout;
  head_config.batch_norm = config_.batch_norm;
  head_config.outputs = config_.output_dim;
  head_ = std::make_unique<DenseHead>(head_config, &rng_);
  optimizer_ = std::make_unique<AdamOptimizer>(config_.learning_rate);
  optimizer_->Register(conv_->Params());
  optimizer_->Register(head_->Params());
}

void SubtreeModel::AddSample(std::vector<TreeFeatures> subtrees,
                             float target) {
  PRESTROID_CHECK_EQ(config_.output_dim, 1u);
  AddSampleMulti(std::move(subtrees), {target});
}

void SubtreeModel::AddSampleMulti(std::vector<TreeFeatures> subtrees,
                                  const std::vector<float>& targets) {
  PRESTROID_CHECK_EQ(targets.size(), config_.output_dim);
  for (const TreeFeatures& tree : subtrees) {
    PRESTROID_CHECK_LE(tree.num_nodes(), config_.node_limit);
    PRESTROID_CHECK_EQ(tree.features.dim(1), config_.feature_dim);
  }
  if (subtrees.size() > config_.num_subtrees) {
    subtrees.resize(config_.num_subtrees);
  }
  samples_.push_back(std::move(subtrees));
  // Flat [num_samples, output_dim] layout.
  for (float target : targets) targets_.push_back(target);
}

void SubtreeModel::PopSample() {
  PRESTROID_CHECK(!samples_.empty());
  samples_.pop_back();
  for (size_t i = 0; i < config_.output_dim; ++i) targets_.pop_back();
}

void SubtreeModel::SetExecutionContext(ExecutionContext* ctx) {
  ctx_ = ctx;
  conv_->BindContext(ctx);
  pooling_.set_context(ctx);
  head_->BindContext(ctx);
}

std::vector<const std::vector<TreeFeatures>*> SubtreeModel::StoredSamples(
    const std::vector<size_t>& indices) const {
  std::vector<const std::vector<TreeFeatures>*> samples;
  samples.reserve(indices.size());
  for (size_t idx : indices) samples.push_back(&samples_[idx]);
  return samples;
}

const Tensor& SubtreeModel::ForwardSamples(
    const std::vector<const std::vector<TreeFeatures>*>& samples, size_t start,
    size_t end) {
  const size_t b = end - start;
  const size_t k = config_.num_subtrees;
  trees_ws_.assign(b * k, nullptr);
  for (size_t i = 0; i < b; ++i) {
    const std::vector<TreeFeatures>& trees = *samples[start + i];
    const size_t used = std::min(trees.size(), k);
    for (size_t s = 0; s < used; ++s) trees_ws_[i * k + s] = &trees[s];
  }
  AssembleTreeBatch(trees_ws_, config_.feature_dim, &batch_ws_);
  const Tensor& conv_out = conv_->Forward(batch_ws_);
  Tensor& pooled = pooling_.Forward(conv_out, batch_ws_);  // [B*K, C]
  // Row-major [B*K, C] is bitwise identical to [B, K*C]: flattening across
  // sub-trees is a pure relabeling of the pooling workspace.
  pooled.ReshapeInPlace({b, k * conv_->output_dim()});
  return head_->Forward(pooled);
}

std::vector<float> SubtreeModel::PredictBorrowed(
    const std::vector<const std::vector<TreeFeatures>*>& samples) {
  head_->SetTraining(false);
  std::vector<float> out;
  out.reserve(samples.size());
  constexpr size_t kEvalBatch = 64;
  for (size_t start = 0; start < samples.size(); start += kEvalBatch) {
    const size_t end = std::min(samples.size(), start + kEvalBatch);
    const Tensor& pred = ForwardSamples(samples, start, end);
    // CostModel convention: the first objective (total CPU time).
    for (size_t i = 0; i < end - start; ++i) {
      out.push_back(pred.At(i, 0));
    }
  }
  head_->SetTraining(true);
  return out;
}

double SubtreeModel::TrainEpoch(const std::vector<size_t>& indices,
                                size_t batch_size) {
  PRESTROID_CHECK_GT(batch_size, 0u);
  head_->SetTraining(true);
  const std::vector<const std::vector<TreeFeatures>*> samples =
      StoredSamples(indices);
  double total_loss = 0.0;
  size_t num_batches = 0;
  for (size_t start = 0; start < indices.size(); start += batch_size) {
    const size_t end = std::min(indices.size(), start + batch_size);
    const size_t b = end - start;
    const Tensor& pred = ForwardSamples(samples, start, end);

    const size_t out = config_.output_dim;
    target_ws_.ResetShape({b, out});
    for (size_t i = 0; i < b; ++i) {
      for (size_t j = 0; j < out; ++j) {
        target_ws_[i * out + j] = targets_[indices[start + i] * out + j];
      }
    }

    optimizer_->ZeroGrad();
    total_loss += loss_.Compute(pred, target_ws_);
    ++num_batches;

    loss_.GradientInto(&grad_ws_);
    const Tensor& grad_head = head_->Backward(grad_ws_);  // [B, K*C]
    grad_pooled_ws_.CopyFrom(grad_head);
    grad_pooled_ws_.ReshapeInPlace(
        {b * config_.num_subtrees, conv_->output_dim()});
    const Tensor& grad_conv = pooling_.Backward(grad_pooled_ws_);
    conv_->Backward(grad_conv);
    optimizer_->Step();
  }
  return num_batches == 0 ? 0.0 : total_loss / static_cast<double>(num_batches);
}

Tensor SubtreeModel::PredictMulti(const std::vector<size_t>& indices) {
  head_->SetTraining(false);
  const size_t out_dim = config_.output_dim;
  Tensor out({indices.size(), out_dim});
  const std::vector<const std::vector<TreeFeatures>*> samples =
      StoredSamples(indices);
  constexpr size_t kEvalBatch = 64;
  for (size_t start = 0; start < indices.size(); start += kEvalBatch) {
    const size_t end = std::min(indices.size(), start + kEvalBatch);
    const Tensor& pred = ForwardSamples(samples, start, end);
    for (size_t i = 0; i < end - start; ++i) {
      for (size_t j = 0; j < out_dim; ++j) {
        out.At(start + i, j) = pred.At(i, j);
      }
    }
  }
  head_->SetTraining(true);
  return out;
}

std::vector<float> SubtreeModel::Predict(const std::vector<size_t>& indices) {
  Tensor multi = PredictMulti(indices);
  std::vector<float> out;
  out.reserve(indices.size());
  // CostModel interface: the first objective (total CPU time).
  for (size_t i = 0; i < indices.size(); ++i) out.push_back(multi.At(i, 0));
  return out;
}

size_t SubtreeModel::NumParameters() const {
  return conv_->NumParameters() + head_->NumParameters();
}

size_t SubtreeModel::InputBytesPerBatch(size_t batch_size) const {
  return batch_size * config_.num_subtrees * config_.node_limit *
         config_.feature_dim * sizeof(float);
}

}  // namespace prestroid::core
