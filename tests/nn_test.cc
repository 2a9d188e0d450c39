#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/model_blocks.h"
#include "nn/activations.h"
#include "nn/batch_norm.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/embedding_layer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "nn/tree_conv.h"
#include "tensor/kernels/kernel_registry.h"
#include "tensor/ops.h"
#include "util/fault_injection.h"

namespace prestroid {
namespace {

TEST(DenseTest, OutputShapeAndBias) {
  Rng rng(1);
  Dense dense(3, 2, &rng);
  dense.weight().Fill(0.0f);
  dense.bias() = Tensor({2}, {1.0f, -1.0f});
  Tensor out = dense.Forward(Tensor({2, 3}, {1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(out.AllClose(Tensor({2, 2}, {1, -1, 1, -1})));
}

TEST(DenseTest, ParamCount) {
  Rng rng(1);
  Dense dense(10, 5, &rng);
  EXPECT_EQ(dense.NumParameters(), 10u * 5u + 5u);
}

TEST(ActivationTest, ReluZeroesNegativesInBackward) {
  ReluLayer relu;
  Tensor out = relu.Forward(Tensor({3}, {-1, 0, 2}));
  EXPECT_TRUE(out.AllClose(Tensor({3}, {0, 0, 2})));
  Tensor grad = relu.Backward(Tensor({3}, {1, 1, 1}));
  EXPECT_TRUE(grad.AllClose(Tensor({3}, {0, 0, 1})));
}

TEST(ActivationTest, SigmoidBackwardPeakAtHalf) {
  SigmoidLayer sigmoid;
  sigmoid.Forward(Tensor({1}, {0.0f}));
  Tensor grad = sigmoid.Backward(Tensor({1}, {1.0f}));
  EXPECT_NEAR(grad[0], 0.25f, 1e-6f);  // sigma'(0) = 0.25
}

TEST(ActivationTest, LeakyReluSlope) {
  LeakyReluLayer leaky(0.1f);
  Tensor out = leaky.Forward(Tensor({2}, {-10, 10}));
  EXPECT_NEAR(out[0], -1.0f, 1e-6f);
  EXPECT_NEAR(out[1], 10.0f, 1e-6f);
  Tensor grad = leaky.Backward(Tensor({2}, {1, 1}));
  EXPECT_NEAR(grad[0], 0.1f, 1e-6f);
  EXPECT_NEAR(grad[1], 1.0f, 1e-6f);
}

TEST(DropoutTest, IdentityInEvalMode) {
  Rng rng(3);
  Dropout dropout(0.5f, &rng);
  dropout.SetTraining(false);
  Tensor x = Tensor::Random({100}, &rng);
  EXPECT_TRUE(dropout.Forward(x).AllClose(x));
}

TEST(DropoutTest, PreservesExpectationInTraining) {
  Rng rng(4);
  Dropout dropout(0.3f, &rng);
  Tensor x = Tensor::Ones({20000});
  Tensor out = dropout.Forward(x);
  // Inverted dropout: E[out] == E[x].
  EXPECT_NEAR(out.Mean(), 1.0f, 0.03f);
  // Survivors scaled by 1/(1-rate).
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i] == 0.0f || std::abs(out[i] - 1.0f / 0.7f) < 1e-5f);
  }
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(5);
  Dropout dropout(0.5f, &rng);
  Tensor x = Tensor::Ones({1000});
  Tensor out = dropout.Forward(x);
  Tensor grad = dropout.Backward(Tensor::Ones({1000}));
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i] == 0.0f, grad[i] == 0.0f);
  }
}

TEST(BatchNormTest, NormalizesBatchStatistics) {
  BatchNorm1d bn(2);
  Tensor x({4, 2}, {1, 10, 2, 20, 3, 30, 4, 40});
  Tensor out = bn.Forward(x);
  // Per-feature mean ~0, variance ~1.
  for (size_t j = 0; j < 2; ++j) {
    float mean = 0, var = 0;
    for (size_t i = 0; i < 4; ++i) mean += out.At(i, j);
    mean /= 4;
    for (size_t i = 0; i < 4; ++i) var += (out.At(i, j) - mean) * (out.At(i, j) - mean);
    var /= 4;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm1d bn(1);
  // Train on a few batches to move the running stats.
  for (int i = 0; i < 50; ++i) {
    bn.Forward(Tensor({4, 1}, {9, 10, 11, 10}));
  }
  bn.SetTraining(false);
  Tensor out = bn.Forward(Tensor({1, 1}, {10.0f}));
  EXPECT_NEAR(out[0], 0.0f, 0.2f);  // 10 is the running mean
}

TEST(Conv1dTest, ValidPaddingShape) {
  Rng rng(6);
  Conv1d conv(8, 3, 5, &rng);
  Tensor x = Tensor::Random({2, 10, 8}, &rng);
  Tensor out = conv.Forward(x);
  EXPECT_EQ(out.shape(), (std::vector<size_t>{2, 8, 5}));
}

TEST(Conv1dTest, DetectsPattern) {
  Rng rng(7);
  Conv1d conv(1, 2, 1, &rng);
  // Kernel [1, -1] detects decreasing steps.
  conv.Params()[0].value->At(0, 0) = 1.0f;
  conv.Params()[0].value->At(0, 1) = -1.0f;
  (*conv.Params()[1].value)[0] = 0.0f;
  Tensor x({1, 4, 1}, {5, 3, 3, 7});
  Tensor out = conv.Forward(x);
  EXPECT_NEAR(out.At(0, 0, 0), 2.0f, 1e-5f);
  EXPECT_NEAR(out.At(0, 1, 0), 0.0f, 1e-5f);
  EXPECT_NEAR(out.At(0, 2, 0), -4.0f, 1e-5f);
}

TEST(GlobalMaxPoolTest, PicksMaxPerChannel) {
  GlobalMaxPool1d pool;
  Tensor x({1, 3, 2}, {1, 9, 5, 2, 3, 4});
  Tensor out = pool.Forward(x);
  EXPECT_TRUE(out.AllClose(Tensor({1, 2}, {5, 9})));
  Tensor grad = pool.Backward(Tensor({1, 2}, {1, 1}));
  EXPECT_EQ(grad.At(0, 1, 0), 1.0f);  // argmax t=1 for channel 0
  EXPECT_EQ(grad.At(0, 0, 1), 1.0f);  // argmax t=0 for channel 1
  EXPECT_EQ(grad.Sum(), 2.0f);
}

TEST(EmbeddingTest, LookupAndPadding) {
  Rng rng(8);
  EmbeddingLayer embedding(10, 4, &rng);
  Tensor out = embedding.ForwardIds({{0, 3}, {3, 0}});
  // Padding id 0 is the zero vector.
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(out.At(0, 0, j), 0.0f);
    EXPECT_EQ(out.At(1, 1, j), 0.0f);
    EXPECT_EQ(out.At(0, 1, j), out.At(1, 0, j));  // same token id 3
  }
}

TEST(EmbeddingTest, PaddingGetsNoGradient) {
  Rng rng(9);
  EmbeddingLayer embedding(5, 2, &rng);
  embedding.ForwardIds({{0, 2}});
  Tensor grad({1, 2, 2});
  grad.Fill(1.0f);
  embedding.Backward(grad);
  Tensor& table_grad = *embedding.Params()[0].grad;
  EXPECT_EQ(table_grad.At(0, 0), 0.0f);
  EXPECT_EQ(table_grad.At(2, 0), 1.0f);
}

/// A one-tree batch over `count` nodes with the given children and votes.
TreeBatch OneTree(const Tensor& features, const std::vector<int>& left,
                  const std::vector<int>& right,
                  const std::vector<float>& votes) {
  TreeBatch batch;
  batch.Reset(left.size(), features.dim(1));
  batch.AddTree(features.data(), left.size(), left.data(), right.data(),
                votes.data());
  return batch;
}

TEST(TreeBatchTest, ChildIndicesBecomeBatchGlobalRows) {
  TreeBatch batch;
  batch.Reset(4, 1);
  const float a[] = {1, 2, 3};
  const int left_a[] = {1, -1, -1}, right_a[] = {2, -1, -1};
  const float votes_a[] = {1, 1, 0};
  batch.AddTree(a, 3, left_a, right_a, votes_a);
  batch.AddTree(nullptr, 0, nullptr, nullptr, nullptr);  // missing sub-tree
  const float b[] = {4};
  const int none[] = {-1};
  const float vote_b[] = {1};
  batch.AddTree(b, 1, none, none, vote_b);
  EXPECT_EQ(batch.num_trees(), 3u);
  EXPECT_EQ(batch.num_rows(), 4u);
  EXPECT_EQ(batch.offsets, (std::vector<size_t>{0, 3, 3, 4}));
  EXPECT_EQ(batch.left, (std::vector<int>{1, -1, -1, -1}));
  EXPECT_EQ(batch.right, (std::vector<int>{2, -1, -1, -1}));
  EXPECT_EQ(batch.votes, (std::vector<float>{1, 1, 0, 1}));
  EXPECT_EQ(batch.features[3], 4.0f);
}

TEST(TreeBatchTest, BatchOfOnlyMissingTreesPoolsToZero) {
  // A sample whose sub-trees are all missing: zero rows through the whole
  // trunk, forward and backward, on either backend.
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kBlocked}) {
    ExecutionContext ctx(1);
    ctx.mutable_kernels()->SetAllBackends(backend);
    Rng rng(9);
    TreeConvLayer conv(4, 3, &rng);
    conv.set_context(&ctx);
    MaskedDynamicPooling pooling;
    pooling.set_context(&ctx);
    TreeBatch batch;
    batch.Reset(0, 4);
    batch.AddTree(nullptr, 0, nullptr, nullptr, nullptr);
    batch.AddTree(nullptr, 0, nullptr, nullptr, nullptr);
    const Tensor& pooled =
        pooling.Forward(conv.Forward(batch.features, batch), batch);
    EXPECT_TRUE(pooled.AllClose(Tensor({2, 3})));
    const Tensor& grad_rows = pooling.Backward(Tensor::Full({2, 3}, 1.0f));
    EXPECT_EQ(conv.Backward(grad_rows).size(), 0u);
    EXPECT_EQ(conv.Params()[0].grad->Sum(), 0.0f);
  }
}

TEST(TreeConvTest, NullChildrenContributeNothing) {
  Rng rng(10);
  TreeConvLayer conv(2, 3, &rng);
  Tensor x({1, 2}, {1.0f, 2.0f});
  const TreeBatch batch = OneTree(x, {-1}, {-1}, {1.0f});
  Tensor out = conv.Forward(x, batch);
  // out = ReLU(bias + x * w_self) only.
  Tensor expected({1, 3});
  auto params = conv.Params();
  Tensor& w_self = *params[0].value;
  Tensor& bias = *params[3].value;
  for (size_t o = 0; o < 3; ++o) {
    expected.At(0, o) = std::max(
        0.0f, bias[o] + 1.0f * w_self.At(0, o) + 2.0f * w_self.At(1, o));
  }
  EXPECT_TRUE(out.AllClose(expected, 1e-5f));
}

TEST(TreeConvTest, ChildrenRouteThroughCorrectWeights) {
  Rng rng(11);
  TreeConvLayer conv(1, 1, &rng);
  auto params = conv.Params();
  params[0].value->Fill(0.0f);  // w_self
  params[1].value->Fill(2.0f);  // w_left
  params[2].value->Fill(3.0f);  // w_right
  params[3].value->Fill(0.0f);  // bias
  // Tree: root(0) with left=1, right=2.
  Tensor x({3, 1}, {0.0f, 10.0f, 100.0f});
  const TreeBatch batch = OneTree(x, {1, -1, -1}, {2, -1, -1}, {1, 1, 1});
  Tensor out = conv.Forward(x, batch);
  EXPECT_NEAR(out.At(0, 0), 2.0f * 10 + 3.0f * 100, 1e-4f);
}

TEST(TreeConvTest, ReluIsFusedAndMasksTheGradient) {
  Rng rng(13);
  TreeConvLayer conv(1, 1, &rng);
  auto params = conv.Params();
  params[0].value->Fill(1.0f);  // w_self
  params[1].value->Fill(0.0f);
  params[2].value->Fill(0.0f);
  params[3].value->Fill(0.0f);
  Tensor x({2, 1}, {-3.0f, 5.0f});
  TreeBatch batch;
  batch.Reset(2, 1);
  const int none[] = {-1};
  const float vote[] = {1};
  batch.AddTree(x.data(), 1, none, none, vote);
  batch.AddTree(x.data() + 1, 1, none, none, vote);
  Tensor out = conv.Forward(x, batch);
  EXPECT_EQ(out.At(0, 0), 0.0f);
  EXPECT_EQ(out.At(1, 0), 5.0f);
  Tensor gx = conv.Backward(Tensor({2, 1}, {1.0f, 1.0f}));
  EXPECT_EQ(gx.At(0, 0), 0.0f);  // the clipped row passes no gradient
  EXPECT_EQ(gx.At(1, 0), 1.0f);
}

TEST(TreeConvTest, ParamCountMatchesFormula) {
  Rng rng(12);
  TreeConvLayer conv(7, 9, &rng);
  EXPECT_EQ(conv.NumParameters(), 3u * 7 * 9 + 9);
}

TEST(MaskedPoolingTest, RespectsVotes) {
  MaskedDynamicPooling pooling;
  Tensor x({2, 2}, {100, 100, 1, 2});
  const TreeBatch batch = OneTree(x, {-1, -1}, {-1, -1}, {0.0f, 1.0f});
  Tensor out = pooling.Forward(x, batch);  // only node 1 votes
  EXPECT_TRUE(out.AllClose(Tensor({1, 2}, {1, 2})));
}

TEST(MaskedPoolingTest, AllMaskedAndMissingTreesPoolToZero) {
  MaskedDynamicPooling pooling;
  Tensor x({1, 3}, {5, 6, 7});
  TreeBatch batch;
  batch.Reset(1, 3);
  const int none[] = {-1};
  const float zero_vote[] = {0.0f};
  batch.AddTree(x.data(), 1, none, none, zero_vote);
  batch.AddTree(nullptr, 0, nullptr, nullptr, nullptr);
  Tensor out = pooling.Forward(x, batch);
  EXPECT_TRUE(out.AllClose(Tensor({2, 3})));
  // Backward routes nothing.
  Tensor grad = pooling.Backward(Tensor({2, 3}, {1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(grad.Sum(), 0.0f);
}

// ---------------------------------------------------------------------------
// Property: the flat TreeBatch trunk + pooling is bitwise equal to the padded
// layout it replaced, on both backends, frozen or not, at 1 and 4 threads.
// ---------------------------------------------------------------------------

/// Random binary tree of `n` nodes (local indices, -1 = no child). `shape`
/// 0 = random, 1 = left-only chain.
core::TreeFeatures RandomTree(size_t n, int shape, size_t feature_dim,
                              bool zero_votes, Rng* rng) {
  core::TreeFeatures tree;
  tree.features = Tensor::Random({n, feature_dim}, rng, -1.0f, 1.0f);
  // Sparse-ish one-hot blocks, as in real node encodings (the scalar kernel
  // skips zero inputs, so zeros must be exercised).
  for (size_t i = 0; i < tree.features.size(); ++i) {
    if (rng->NextUint64(3) == 0) tree.features[i] = 0.0f;
  }
  tree.left.assign(n, -1);
  tree.right.assign(n, -1);
  for (size_t i = 1; i < n; ++i) {
    if (shape == 1) {
      tree.left[i - 1] = static_cast<int>(i);
      continue;
    }
    while (true) {
      const size_t parent = rng->NextUint64(i);
      std::vector<int>& side = rng->NextUint64(2) == 0 ? tree.left : tree.right;
      if (side[parent] < 0) {
        side[parent] = static_cast<int>(i);
        break;
      }
    }
  }
  tree.votes.assign(n, 1.0f);
  for (size_t i = 0; i < n; ++i) {
    if (zero_votes || rng->NextUint64(4) == 0) tree.votes[i] = 0.0f;
  }
  return tree;
}

/// The padded reference: every tree in `slots` (null = missing) occupies
/// `pad` node slots; padding slots are zero features, no children, vote 0.
/// Each layer is the historical padded TreeConv followed by a separate ReLU
/// pass; pooling is the historical slot-by-slot masked max.
Tensor PaddedReference(const std::vector<const core::TreeFeatures*>& slots,
                       size_t pad, size_t feature_dim,
                       const std::vector<ParamRef>& params, size_t channels,
                       size_t layers, KernelBackend backend) {
  const size_t trees = slots.size();
  std::vector<int> left(trees * pad, -1), right(trees * pad, -1);
  std::vector<float> mask(trees * pad, 0.0f);
  Tensor x({trees * pad, feature_dim});
  for (size_t t = 0; t < trees; ++t) {
    if (slots[t] == nullptr) continue;
    const core::TreeFeatures& tree = *slots[t];
    for (size_t n = 0; n < tree.num_nodes(); ++n) {
      left[t * pad + n] = tree.left[n];
      right[t * pad + n] = tree.right[n];
      mask[t * pad + n] = tree.votes[n];
      for (size_t f = 0; f < feature_dim; ++f) {
        x.At(t * pad + n, f) = tree.features.At(n, f);
      }
    }
  }
  ExecutionContext ctx(1);
  ctx.mutable_kernels()->SetAllBackends(backend);
  size_t in = feature_dim;
  for (size_t layer = 0; layer < layers; ++layer) {
    const Tensor& ws = *params[4 * layer].value;
    const Tensor& wl = *params[4 * layer + 1].value;
    const Tensor& wr = *params[4 * layer + 2].value;
    const Tensor& bias = *params[4 * layer + 3].value;
    Tensor y({trees * pad, channels});
    if (backend == KernelBackend::kScalar) {
      auto accumulate = [&](const float* x_row, const Tensor& w, float* out) {
        for (size_t i = 0; i < in; ++i) {
          if (x_row[i] == 0.0f) continue;
          for (size_t o = 0; o < channels; ++o) out[o] += x_row[i] * w.At(i, o);
        }
      };
      for (size_t t = 0; t < trees; ++t) {
        for (size_t n = 0; n < pad; ++n) {
          float* out = y.data() + (t * pad + n) * channels;
          for (size_t o = 0; o < channels; ++o) out[o] = bias[o];
          accumulate(x.data() + (t * pad + n) * in, ws, out);
          const int l = left[t * pad + n], r = right[t * pad + n];
          if (l >= 0) accumulate(x.data() + (t * pad + l) * in, wl, out);
          if (r >= 0) accumulate(x.data() + (t * pad + r) * in, wr, out);
        }
      }
    } else {
      Tensor windows({trees * pad, 3 * in});
      Tensor wcat({3 * in, channels});
      for (size_t i = 0; i < in; ++i) {
        for (size_t o = 0; o < channels; ++o) {
          wcat.At(i, o) = ws.At(i, o);
          wcat.At(in + i, o) = wl.At(i, o);
          wcat.At(2 * in + i, o) = wr.At(i, o);
        }
      }
      for (size_t t = 0; t < trees; ++t) {
        for (size_t n = 0; n < pad; ++n) {
          const size_t row = t * pad + n;
          const int l = left[row], r = right[row];
          for (size_t i = 0; i < in; ++i) {
            windows.At(row, i) = x.At(row, i);
            if (l >= 0) windows.At(row, in + i) = x.At(t * pad + l, i);
            if (r >= 0) windows.At(row, 2 * in + i) = x.At(t * pad + r, i);
          }
        }
      }
      MatMulBiasInto(&y, windows, wcat, bias, &ctx);
    }
    ReluInto(&y, y, &ctx);
    x = y;
    in = channels;
  }
  Tensor pooled({trees, channels});
  for (size_t t = 0; t < trees; ++t) {
    for (size_t d = 0; d < channels; ++d) {
      float best = -std::numeric_limits<float>::infinity();
      bool any = false;
      for (size_t n = 0; n < pad; ++n) {
        if (mask[t * pad + n] == 0.0f) continue;
        if (x.At(t * pad + n, d) > best) {
          best = x.At(t * pad + n, d);
          any = true;
        }
      }
      pooled.At(t, d) = any ? best : 0.0f;
    }
  }
  return pooled;
}

TEST(TreeBatchPropertyTest, FlatTrunkAndPoolingAreBitwiseEqualToPadded) {
  constexpr size_t kFeatureDim = 13, kChannels = 7, kLayers = 3;
  constexpr size_t kNodeLimit = 15, kSubtrees = 9;
  Rng rng(2024);
  size_t compared = 0, nonzero = 0;
  for (int round = 0; round < 6; ++round) {
    // Even rounds: sub-tree forests (<= N nodes, up to K per sample, some
    // missing). Odd rounds: full trees, some larger than the dataset's
    // padding size (the old full-tree model padded to the batch maximum).
    const bool full = round % 2 == 1;
    std::vector<core::TreeFeatures> storage;
    storage.reserve(64);
    std::vector<int> slot_tree;  // index into storage, -1 = missing
    const size_t samples = 1 + rng.NextUint64(5);
    for (size_t s = 0; s < samples; ++s) {
      const size_t present =
          full ? 1 : 1 + rng.NextUint64(kSubtrees);  // fewer than K
      const size_t per_sample = full ? 1 : kSubtrees;
      for (size_t k = 0; k < per_sample; ++k) {
        if (k >= present) {
          slot_tree.push_back(-1);
          continue;
        }
        const uint64_t kind = rng.NextUint64(5);
        size_t n = kind == 0 ? 1 : 1 + rng.NextUint64(kNodeLimit);
        if (full) n = 1 + rng.NextUint64(3 * kNodeLimit);
        storage.push_back(RandomTree(n, kind == 1 ? 1 : 0, kFeatureDim,
                                     /*zero_votes=*/kind == 2, &rng));
        slot_tree.push_back(static_cast<int>(storage.size() - 1));
      }
    }
    std::vector<const core::TreeFeatures*> slots;
    size_t largest = 0;
    for (int idx : slot_tree) {
      slots.push_back(idx < 0 ? nullptr : &storage[static_cast<size_t>(idx)]);
      if (idx >= 0) largest = std::max(largest, storage[idx].num_nodes());
    }
    const size_t pad = full ? largest + 2 : kNodeLimit;

    for (KernelBackend backend :
         {KernelBackend::kScalar, KernelBackend::kBlocked}) {
      for (bool frozen : {false, true}) {
        if (frozen && backend == KernelBackend::kScalar) continue;
        for (size_t threads : {1, 4}) {
          SCOPED_TRACE(testing::Message()
                       << "round " << round << " backend "
                       << KernelRegistry::BackendName(backend) << " frozen "
                       << frozen << " threads " << threads);
          Rng weights(77 + static_cast<uint64_t>(round));
          core::TreeConvStack stack(
              kFeatureDim, std::vector<size_t>(kLayers, kChannels), &weights);
          // Nonzero biases, so padding slots carry ReLU(bias) between layers
          // in the padded reference, as they did in the padded model.
          for (ParamRef& p : stack.Params()) {
            if (p.name == "bias") {
              for (size_t i = 0; i < p.value->size(); ++i) {
                (*p.value)[i] = 0.1f * static_cast<float>(i % 3) - 0.05f;
              }
            }
          }
          const Tensor want =
              PaddedReference(slots, pad, kFeatureDim, stack.Params(),
                              kChannels, kLayers, backend);
          ExecutionContext ctx(threads);
          ctx.mutable_kernels()->SetAllBackends(backend);
          stack.BindContext(&ctx);
          if (frozen) {
            std::vector<FreezableLayer*> layers;
            stack.CollectFreezableLayers(&layers);
            for (FreezableLayer* layer : layers) layer->FreezeWeights();
          }
          MaskedDynamicPooling pooling;
          pooling.set_context(&ctx);
          TreeBatch batch;
          core::AssembleTreeBatch(slots, kFeatureDim, &batch);
          const Tensor& got = pooling.Forward(stack.Forward(batch), batch);
          ASSERT_EQ(got.shape(), want.shape());
          for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << "pooled element " << i;
            nonzero += want[i] != 0.0f ? 1 : 0;
          }
          compared += want.size();
        }
      }
    }
  }
  // The forests are not inert: most pooled values are real maxima.
  EXPECT_GT(nonzero, compared / 4);
}

TEST(LossTest, MseKnownValue) {
  MseLoss loss;
  double value = loss.Compute(Tensor({2}, {1, 3}), Tensor({2}, {0, 0}));
  EXPECT_NEAR(value, (1.0 + 9.0) / 2.0, 1e-6);
  Tensor grad = loss.Gradient();
  EXPECT_NEAR(grad[0], 2.0f * 1 / 2, 1e-6f);
  EXPECT_NEAR(grad[1], 2.0f * 3 / 2, 1e-6f);
}

TEST(LossTest, HuberQuadraticInside) {
  HuberLoss loss(1.0f);
  double value = loss.Compute(Tensor({1}, {0.5f}), Tensor({1}, {0.0f}));
  EXPECT_NEAR(value, 0.5 * 0.25, 1e-6);
  EXPECT_NEAR(loss.Gradient()[0], 0.5f, 1e-6f);
}

TEST(LossTest, HuberLinearOutside) {
  HuberLoss loss(1.0f);
  double value = loss.Compute(Tensor({1}, {5.0f}), Tensor({1}, {0.0f}));
  EXPECT_NEAR(value, 1.0 * (5.0 - 0.5), 1e-6);
  EXPECT_NEAR(loss.Gradient()[0], 1.0f, 1e-6f);  // clipped slope
}

TEST(LossTest, HuberLessSensitiveToOutliersThanMse) {
  HuberLoss huber(1.0f);
  MseLoss mse;
  Tensor pred({2}, {0.1f, 10.0f});
  Tensor target({2});
  EXPECT_LT(huber.Compute(pred, target), mse.Compute(pred, target));
}

TEST(OptimizerTest, SgdStepsDownhill) {
  Tensor w({1}, {10.0f});
  Tensor g({1});
  SgdOptimizer opt(0.1f);
  opt.Register({{"w", &w, &g}});
  for (int i = 0; i < 100; ++i) {
    g[0] = 2.0f * w[0];  // d/dw of w^2
    opt.Step();
  }
  EXPECT_NEAR(w[0], 0.0f, 1e-4f);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Tensor w({2}, {5.0f, -3.0f});
  Tensor g({2});
  AdamOptimizer opt(0.1f);
  opt.Register({{"w", &w, &g}});
  for (int i = 0; i < 500; ++i) {
    g[0] = 2.0f * (w[0] - 1.0f);
    g[1] = 2.0f * (w[1] + 2.0f);
    opt.Step();
  }
  EXPECT_NEAR(w[0], 1.0f, 1e-2f);
  EXPECT_NEAR(w[1], -2.0f, 1e-2f);
}

TEST(OptimizerTest, GradientClippingBoundsNorm) {
  Tensor w({1}, {0.0f});
  Tensor g({1}, {100.0f});
  SgdOptimizer opt(1.0f);
  opt.set_clip_norm(1.0f);
  opt.Register({{"w", &w, &g}});
  opt.Step();
  EXPECT_NEAR(w[0], -1.0f, 1e-4f);  // clipped gradient of norm 1
}

TEST(OptimizerTest, ZeroGradClears) {
  Tensor w({2});
  Tensor g({2}, {1, 2});
  SgdOptimizer opt(0.1f);
  opt.Register({{"w", &w, &g}});
  opt.ZeroGrad();
  EXPECT_EQ(g.Sum(), 0.0f);
}

// A trivial 1-parameter CostModel for trainer tests: predicts a constant.
class ConstantModel : public CostModel {
 public:
  explicit ConstantModel(std::vector<float> targets)
      : targets_(std::move(targets)) {}
  std::string name() const override { return "constant"; }
  size_t num_samples() const override { return targets_.size(); }
  double TrainEpoch(const std::vector<size_t>& indices, size_t) override {
    double mean = 0.0;
    for (size_t i : indices) mean += targets_[i];
    mean /= static_cast<double>(indices.size());
    // Move 50% towards the train mean each epoch.
    value_ += 0.5f * (static_cast<float>(mean) - value_);
    double loss = 0.0;
    for (size_t i : indices) {
      loss += (targets_[i] - value_) * (targets_[i] - value_);
    }
    return loss / static_cast<double>(indices.size());
  }
  std::vector<float> Predict(const std::vector<size_t>& indices) override {
    return std::vector<float>(indices.size(), value_);
  }
  size_t NumParameters() const override { return 1; }

 private:
  std::vector<float> targets_;
  float value_ = 0.0f;
};

TEST(TrainerTest, EarlyStoppingTriggersAfterPlateau) {
  std::vector<float> targets = {0.5f, 0.5f, 0.5f, 0.5f};
  ConstantModel model(targets);
  TrainConfig config;
  config.max_epochs = 100;
  config.patience = 3;
  TrainResult result = TrainWithEarlyStopping(&model, {0, 1}, {2, 3},
                                              {0.5f, 0.5f}, config);
  // Converges quickly, then patience expires long before max_epochs.
  EXPECT_LT(result.epochs_run, 40u);
  EXPECT_LT(result.best_val_mse, 1e-4);
  EXPECT_GE(result.epochs_run, result.best_epoch);
  EXPECT_EQ(result.val_mse_history.size(), result.epochs_run);
}

// A model whose single parameter drifts past the optimum: validation MSE is
// minimized at epoch 3, then worsens. The trainer must restore the epoch-3
// weights before returning.
class DriftModel : public CostModel {
 public:
  DriftModel() : value_({1}), grad_({1}) {}
  std::string name() const override { return "drift"; }
  size_t num_samples() const override { return 4; }
  double TrainEpoch(const std::vector<size_t>&, size_t) override {
    value_[0] += 1.0f;  // epochs 1,2,3,... -> value 1,2,3,...
    return 0.0;
  }
  std::vector<float> Predict(const std::vector<size_t>& indices) override {
    // Distance from the sweet spot 3.0 (targets are 0).
    return std::vector<float>(indices.size(), std::abs(value_[0] - 3.0f));
  }
  size_t NumParameters() const override { return 1; }
  std::vector<ParamRef> Params() override {
    return {{"value", &value_, &grad_}};
  }
  float value() const { return value_[0]; }

 private:
  Tensor value_;
  Tensor grad_;
};

TEST(TrainerTest, RestoresBestValidationWeights) {
  DriftModel model;
  TrainConfig config;
  config.max_epochs = 30;
  config.patience = 3;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_GT(result.epochs_run, 3u);  // kept drifting until patience expired
  // The best (epoch 3) parameter value was restored, not the drifted one.
  EXPECT_FLOAT_EQ(model.value(), 3.0f);
  EXPECT_NEAR(result.best_val_mse, 0.0, 1e-9);
}

TEST(TrainerTest, MeanSquaredError) {
  EXPECT_NEAR(MeanSquaredError({1.0f, 2.0f}, {0.0f, 0.0f}), 2.5, 1e-6);
}

TEST(TrainerTest, EmptyValidationSetFallsBackToTrainLoss) {
  ConstantModel model({0.5f, 0.5f, 0.5f, 0.5f});
  TrainConfig config;
  config.max_epochs = 20;
  config.patience = 3;
  TrainResult result = TrainWithEarlyStopping(&model, {0, 1, 2, 3}, {}, {},
                                              config);
  EXPECT_GE(result.epochs_run, 1u);
  // Validation history mirrors the train loss when no val set exists.
  ASSERT_FALSE(result.val_mse_history.empty());
  EXPECT_EQ(result.val_mse_history[0], result.train_loss_history[0]);
}

TEST(TrainerTest, ZeroPatienceStopsAtFirstPlateau) {
  DriftModel model;  // val MSE improves until epoch 3, then worsens
  TrainConfig config;
  config.max_epochs = 30;
  config.patience = 0;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);
  // Stops at the first epoch without improvement (epoch 4) and restores
  // the epoch-3 optimum.
  EXPECT_EQ(result.epochs_run, 4u);
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_FLOAT_EQ(model.value(), 3.0f);
}

TEST(TrainerTest, ZeroMaxEpochsRunsNothing) {
  ConstantModel model({0.5f, 0.5f});
  TrainConfig config;
  config.max_epochs = 0;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {}, {}, config);
  EXPECT_EQ(result.epochs_run, 0u);
  EXPECT_TRUE(result.train_loss_history.empty());
  EXPECT_EQ(result.nan_rollbacks, 0u);
  EXPECT_FALSE(result.diverged);
}

// DriftModel variant that reports learning-rate backoff calls.
class BackoffDriftModel : public DriftModel {
 public:
  void ScaleLearningRate(float factor) override {
    lr_scale_ *= factor;
    ++backoff_calls_;
  }
  float lr_scale() const { return lr_scale_; }
  size_t backoff_calls() const { return backoff_calls_; }

 private:
  float lr_scale_ = 1.0f;
  size_t backoff_calls_ = 0;
};

TEST(TrainerTest, NanLossRollsBackAndBacksOffLearningRate) {
  ScopedFaultInjection faults;
  // Poison the 4th computed epoch loss (epochs 1-3 train normally, so a
  // best checkpoint exists at the optimum).
  FaultInjector::Global().ArmFailure(FaultSite::kTrainEpochLoss, 3);

  BackoffDriftModel model;
  TrainConfig config;
  config.max_epochs = 30;
  config.patience = 3;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);

  EXPECT_EQ(result.nan_rollbacks, 1u);
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(model.backoff_calls(), 1u);
  EXPECT_FLOAT_EQ(model.lr_scale(), 0.5f);
  // Training recovered, completed, and still restored the best weights.
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_FLOAT_EQ(model.value(), 3.0f);
  // The poisoned epoch never entered the histories.
  for (double loss : result.train_loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(TrainerTest, PersistentNanExhaustsRetriesAndKeepsBestWeights) {
  ScopedFaultInjection faults;
  FaultInjector::Global().ArmFailure(FaultSite::kTrainEpochLoss, 3,
                                     /*repeat=*/true);

  BackoffDriftModel model;
  TrainConfig config;
  config.max_epochs = 30;
  config.patience = 5;
  config.nan_retry_limit = 2;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);

  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.nan_rollbacks, 3u);  // 2 retries + the final give-up
  EXPECT_EQ(model.backoff_calls(), 2u);
  // The epoch-3 best checkpoint survived the divergent tail.
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_FLOAT_EQ(model.value(), 3.0f);
}

TEST(TrainerTest, NanBeforeAnyCheckpointRollsBackToInitialWeights) {
  ScopedFaultInjection faults;
  // Every epoch is poisoned: no best checkpoint ever forms.
  FaultInjector::Global().ArmFailure(FaultSite::kTrainEpochLoss, 0,
                                     /*repeat=*/true);

  BackoffDriftModel model;
  const float initial_value = model.value();
  TrainConfig config;
  config.max_epochs = 30;
  config.nan_retry_limit = 3;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);

  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.epochs_run, 0u);
  // Each retry rolled the drifted weight back to its pre-training value.
  // After the final (non-rolled-back) attempt it has drifted exactly once.
  EXPECT_FLOAT_EQ(model.value(), initial_value + 1.0f);
}

TEST(TrainerTest, SnapshotResumeContinuesEpochCount) {
  const std::string path = ::testing::TempDir() + "/trainer_resume.ckpt";
  TrainConfig config;
  config.max_epochs = 2;  // interrupted run: stops after epoch 2
  config.patience = 10;
  config.snapshot_path = path;
  config.snapshot_every = 1;
  {
    DriftModel model;
    TrainResult result =
        TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);
    EXPECT_EQ(result.epochs_run, 2u);
  }

  // A fresh model resumes from the snapshot and continues at epoch 3.
  DriftModel resumed;
  config.max_epochs = 8;
  config.resume = true;
  TrainResult result = TrainWithEarlyStopping(&resumed, {0, 1}, {2, 3},
                                              {0.0f, 0.0f}, config);
  EXPECT_EQ(result.start_epoch, 3u);
  EXPECT_EQ(result.epochs_run, 8u);
  // Histories cover only the resumed epochs (3..8).
  EXPECT_EQ(result.train_loss_history.size(), 6u);
  // Epoch numbering is continuous across the interruption, so the restored
  // optimum matches an uninterrupted run: best at epoch 3, value 3.0.
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_FLOAT_EQ(resumed.value(), 3.0f);
}

TEST(TrainerTest, ResumeFromMissingSnapshotStartsFresh) {
  DriftModel model;
  TrainConfig config;
  config.max_epochs = 5;
  config.patience = 10;
  config.snapshot_path = ::testing::TempDir() + "/does_not_exist.ckpt";
  config.resume = true;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);
  EXPECT_EQ(result.start_epoch, 1u);
  EXPECT_EQ(result.epochs_run, 5u);
}

}  // namespace
}  // namespace prestroid
