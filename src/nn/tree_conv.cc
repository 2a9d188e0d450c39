#include "nn/tree_conv.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "tensor/kernels/kernel_registry.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace prestroid {

void TreeBatch::Reset(size_t rows, size_t feature_dim) {
  features.ResetShape({rows, feature_dim});
  offsets.assign(1, 0);
  left.clear();
  right.clear();
  votes.clear();
}

void TreeBatch::AddTree(const float* tree_features, size_t count,
                        const int* tree_left, const int* tree_right,
                        const float* tree_votes) {
  const size_t base = num_rows();
  const size_t width = features.dim(1);
  PRESTROID_CHECK_LE(base + count, features.dim(0));
  if (count > 0) {
    std::memcpy(features.data() + base * width, tree_features,
                sizeof(float) * count * width);
  }
  // Tree-local child indices become batch-global rows.
  auto global = [&](int child) {
    if (child < 0) return -1;
    PRESTROID_CHECK_LT(static_cast<size_t>(child), count);
    return static_cast<int>(base) + child;
  };
  for (size_t i = 0; i < count; ++i) {
    left.push_back(global(tree_left[i]));
    right.push_back(global(tree_right[i]));
    votes.push_back(tree_votes[i]);
  }
  offsets.push_back(base + count);
}

TreeConvLayer::TreeConvLayer(size_t in_features, size_t out_features, Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      w_self_(Tensor::GlorotUniform(in_features, out_features, rng)),
      w_left_(Tensor::GlorotUniform(in_features, out_features, rng)),
      w_right_(Tensor::GlorotUniform(in_features, out_features, rng)),
      bias_({out_features}),
      w_self_grad_({in_features, out_features}),
      w_left_grad_({in_features, out_features}),
      w_right_grad_({in_features, out_features}),
      bias_grad_({out_features}) {}

Tensor& TreeConvLayer::Forward(const Tensor& features, const TreeBatch& batch) {
  PRESTROID_CHECK_EQ(features.rank(), 2u);
  PRESTROID_CHECK_EQ(features.dim(0), batch.num_rows());
  PRESTROID_CHECK_EQ(features.dim(1), in_features_);
  input_ = &features;
  batch_ = &batch;
  // Frozen inference always takes the im2col lowering — that is the operand
  // layout the resident weights were built for.
  if (frozen() ||
      ctx_->kernels().backend(KernelOp::kTreeConv) == KernelBackend::kBlocked) {
    ForwardBlocked();
  } else {
    ForwardScalar();
  }
  return output_;
}

void TreeConvLayer::ForwardScalar() {
  const TreeBatch& batch = *batch_;
  const size_t rows = batch.num_rows();
  output_.ResetShape({rows, out_features_});
  ctx_->AddOp();
  // 3 child positions x multiply-add per (row, in, out) triple, plus the
  // ReLU over every output.
  ctx_->AddFlops(6ull * rows * in_features_ * out_features_ +
                 1ull * rows * out_features_);
  // Helper: out_row += x_row * W, with x_row [in], W [in, out].
  auto accumulate = [&](const float* x_row, const Tensor& w, float* out_row) {
    for (size_t i = 0; i < in_features_; ++i) {
      const float xv = x_row[i];
      if (xv == 0.0f) continue;
      const float* w_row = w.data() + i * out_features_;
      for (size_t o = 0; o < out_features_; ++o) out_row[o] += xv * w_row[o];
    }
  };
  const float* x = input_->data();
  ctx_->ParallelFor(0, batch.num_trees(), 1, [&](size_t t0, size_t t1) {
    for (size_t r = batch.offsets[t0]; r < batch.offsets[t1]; ++r) {
      float* out_row = output_.data() + r * out_features_;
      for (size_t o = 0; o < out_features_; ++o) out_row[o] = bias_[o];
      accumulate(x + r * in_features_, w_self_, out_row);
      const int l = batch.left[r];
      if (l >= 0) {
        accumulate(x + static_cast<size_t>(l) * in_features_, w_left_,
                   out_row);
      }
      const int rc = batch.right[r];
      if (rc >= 0) {
        accumulate(x + static_cast<size_t>(rc) * in_features_, w_right_,
                   out_row);
      }
      for (size_t o = 0; o < out_features_; ++o) {
        out_row[o] = std::max(0.0f, out_row[o]);
      }
    }
  });
}

Tensor& TreeConvLayer::Backward(const Tensor& grad_output) {
  PRESTROID_CHECK(!frozen());  // no training while frozen
  PRESTROID_CHECK(batch_ != nullptr);
  const size_t rows = batch_->num_rows();
  PRESTROID_CHECK_EQ(grad_output.rank(), 2u);
  PRESTROID_CHECK_EQ(grad_output.dim(0), rows);
  PRESTROID_CHECK_EQ(grad_output.dim(1), out_features_);

  // The ReLU derivative, read off the output: out > 0 exactly where the
  // pre-activation was > 0.
  gy_.ResetShape({rows, out_features_});
  const float* y = output_.data();
  const float* go = grad_output.data();
  float* g = gy_.data();
  ctx_->ParallelFor(0, gy_.size(), 4096, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) g[i] = y[i] <= 0.0f ? 0.0f : go[i];
  });

  grad_input_.ResetShape({rows, in_features_});
  grad_input_.Fill(0.0f);
  if (ctx_->kernels().backend(KernelOp::kTreeConv) == KernelBackend::kBlocked) {
    BackwardBlocked();
  } else {
    BackwardScalar();
  }
  return grad_input_;
}

void TreeConvLayer::BackwardScalar() {
  const TreeBatch& batch = *batch_;
  const float* x = input_->data();
  ctx_->AddOp();
  ctx_->AddFlops(12ull * batch.num_rows() * in_features_ * out_features_);

  // For each position: dW += x^T gy; dx += gy W^T.
  auto backprop_one = [&](const float* x_row, const float* gy_row,
                          const Tensor& w, Tensor* w_grad, float* gx_row) {
    for (size_t i = 0; i < in_features_; ++i) {
      const float* w_row = w.data() + i * out_features_;
      float* gw_row = w_grad->data() + i * out_features_;
      const float xv = x_row[i];
      float acc = 0.0f;
      for (size_t o = 0; o < out_features_; ++o) {
        const float g = gy_row[o];
        gw_row[o] += xv * g;
        acc += g * w_row[o];
      }
      gx_row[i] += acc;
    }
  };

  // Historical serial loop for trees [t0, t1), accumulating weight/bias
  // gradients into the given tensors.
  auto backward_range = [&](size_t t0, size_t t1, Tensor* gws, Tensor* gwl,
                            Tensor* gwr, Tensor* gb) {
    for (size_t r = batch.offsets[t0]; r < batch.offsets[t1]; ++r) {
      const float* gy = gy_.data() + r * out_features_;
      for (size_t o = 0; o < out_features_; ++o) (*gb)[o] += gy[o];
      const size_t self_off = r * in_features_;
      backprop_one(x + self_off, gy, w_self_, gws,
                   grad_input_.data() + self_off);
      const int l = batch.left[r];
      if (l >= 0) {
        const size_t off = static_cast<size_t>(l) * in_features_;
        backprop_one(x + off, gy, w_left_, gwl, grad_input_.data() + off);
      }
      const int rc = batch.right[r];
      if (rc >= 0) {
        const size_t off = static_cast<size_t>(rc) * in_features_;
        backprop_one(x + off, gy, w_right_, gwr, grad_input_.data() + off);
      }
    }
  };

  const size_t trees = batch.num_trees();
  const auto parts = ctx_->Partition(0, trees, 1);
  if (parts.size() <= 1) {
    backward_range(0, trees, &w_self_grad_, &w_left_grad_, &w_right_grad_,
                   &bias_grad_);
    return;
  }
  // Parallel path: grad_input_ rows are disjoint per tree, but the four
  // weight-gradient accumulators are shared — per-chunk scratch, reduced in
  // ascending chunk order (deterministic at a fixed thread count).
  std::vector<std::vector<Tensor>> scratch(parts.size());
  for (size_t c = 0; c < parts.size(); ++c) {
    scratch[c].push_back(ctx_->AcquireScratch({in_features_, out_features_}));
    scratch[c].push_back(ctx_->AcquireScratch({in_features_, out_features_}));
    scratch[c].push_back(ctx_->AcquireScratch({in_features_, out_features_}));
    scratch[c].push_back(ctx_->AcquireScratch({out_features_}));
  }
  ctx_->ParallelFor(0, trees, 1, [&](size_t t0, size_t t1) {
    size_t c = 0;
    while (parts[c].first != t0) ++c;
    backward_range(t0, t1, &scratch[c][0], &scratch[c][1], &scratch[c][2],
                   &scratch[c][3]);
  });
  for (size_t c = 0; c < parts.size(); ++c) {
    w_self_grad_ += scratch[c][0];
    w_left_grad_ += scratch[c][1];
    w_right_grad_ += scratch[c][2];
    bias_grad_ += scratch[c][3];
    for (Tensor& t : scratch[c]) ctx_->ReleaseScratch(std::move(t));
  }
}

void TreeConvLayer::GatherWindows() {
  const TreeBatch& batch = *batch_;
  const size_t rows = batch.num_rows();
  const size_t in = in_features_;
  const size_t kc = 3 * in;
  packed_input_.ResetShape({rows, kc});
  const float* src = input_->data();
  float* dst_base = packed_input_.data();
  // Every packed row is written from its own window only, so the gather
  // parallelizes freely over rows; null children pack as zero slices, which
  // makes the GEMM below contribute exactly nothing for them.
  ctx_->ParallelFor(0, rows, 64, [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      float* dst = dst_base + r * kc;
      std::memcpy(dst, src + r * in, in * sizeof(float));
      const int l = batch.left[r];
      if (l >= 0) {
        std::memcpy(dst + in, src + static_cast<size_t>(l) * in,
                    in * sizeof(float));
      } else {
        std::memset(dst + in, 0, in * sizeof(float));
      }
      const int rc = batch.right[r];
      if (rc >= 0) {
        std::memcpy(dst + 2 * in, src + static_cast<size_t>(rc) * in,
                    in * sizeof(float));
      } else {
        std::memset(dst + 2 * in, 0, in * sizeof(float));
      }
    }
  });
}

void TreeConvLayer::StackWeights() {
  const size_t wsz = in_features_ * out_features_;
  wcat_.ResetShape({3 * in_features_, out_features_});
  std::memcpy(wcat_.data(), w_self_.data(), wsz * sizeof(float));
  std::memcpy(wcat_.data() + wsz, w_left_.data(), wsz * sizeof(float));
  std::memcpy(wcat_.data() + 2 * wsz, w_right_.data(), wsz * sizeof(float));
}

void TreeConvLayer::ForwardBlocked() {
  GatherWindows();
  // One GEMM with a fused bias+ReLU epilogue covers every (row, position):
  //   out[r] = max(0, [x_self | x_left | x_right] @ [W_self; W_left; W_right]
  //                   + b)
  // The GEMM does its own flop/op accounting (2*rows*3in*out + 2*rows*out).
  if (frozen()) {
    resident_->Gemm(&output_, packed_input_, &bias_, GemmEpilogue::kBiasRelu,
                    ctx_);
    return;
  }
  StackWeights();
  MatMulBiasReluInto(&output_, packed_input_, wcat_, bias_, ctx_);
}

void TreeConvLayer::BackwardBlocked() {
  const TreeBatch& batch = *batch_;
  const size_t in = in_features_;
  const size_t kc = 3 * in;
  PRESTROID_CHECK_EQ(packed_input_.dim(0), batch.num_rows());
  PRESTROID_CHECK_EQ(packed_input_.dim(1), kc);

  // Weight gradients: d[W_self; W_left; W_right] = packed^T @ gy, then
  // split-added into the per-position accumulators. Weights are unchanged
  // since Forward, so restacking wcat_ here keeps the pair self-contained.
  StackWeights();
  MatMulTransposeAInto(&wgcat_, packed_input_, gy_, ctx_);
  const size_t wsz = in_features_ * out_features_;
  const float* wg = wgcat_.data();
  float* gs = w_self_grad_.data();
  float* gl = w_left_grad_.data();
  float* gr = w_right_grad_.data();
  for (size_t i = 0; i < wsz; ++i) gs[i] += wg[i];
  for (size_t i = 0; i < wsz; ++i) gl[i] += wg[wsz + i];
  for (size_t i = 0; i < wsz; ++i) gr[i] += wg[2 * wsz + i];

  bias_tmp_.ResetShape({out_features_});
  bias_tmp_.Fill(0.0f);
  SumRowsAccumulate(&bias_tmp_, gy_, ctx_);
  bias_grad_ += bias_tmp_;

  // Input gradients in window space: gxp = gy @ wcat^T, then scatter-added
  // back through the window map. Trees own disjoint row ranges of
  // grad_input_ (children always live in their own tree), so the scatter
  // parallelizes over trees with a fixed within-tree row order —
  // deterministic at any thread count.
  MatMulTransposeBInto(&gxp_, gy_, wcat_, ctx_);
  const float* gxp = gxp_.data();
  float* gx_base = grad_input_.data();
  ctx_->ParallelFor(0, batch.num_trees(), 1, [&](size_t t0, size_t t1) {
    for (size_t r = batch.offsets[t0]; r < batch.offsets[t1]; ++r) {
      const float* g = gxp + r * kc;
      float* gx_self = gx_base + r * in;
      for (size_t i = 0; i < in; ++i) gx_self[i] += g[i];
      const int l = batch.left[r];
      if (l >= 0) {
        float* gx = gx_base + static_cast<size_t>(l) * in;
        for (size_t i = 0; i < in; ++i) gx[i] += g[in + i];
      }
      const int rc = batch.right[r];
      if (rc >= 0) {
        float* gx = gx_base + static_cast<size_t>(rc) * in;
        for (size_t i = 0; i < in; ++i) gx[i] += g[2 * in + i];
      }
    }
  });
}

std::vector<ParamRef> TreeConvLayer::Params() {
  return {{"w_self", &w_self_, &w_self_grad_},
          {"w_left", &w_left_, &w_left_grad_},
          {"w_right", &w_right_, &w_right_grad_},
          {"bias", &bias_, &bias_grad_}};
}

size_t TreeConvLayer::NumParameters() {
  size_t total = 0;
  for (ParamRef& p : Params()) total += p.value->size();
  return total;
}

Tensor& MaskedDynamicPooling::Forward(const Tensor& features,
                                      const TreeBatch& batch) {
  PRESTROID_CHECK_EQ(features.rank(), 2u);
  PRESTROID_CHECK_EQ(features.dim(0), batch.num_rows());
  const size_t trees = batch.num_trees();
  const size_t dims = features.dim(1);
  input_rows_ = batch.num_rows();
  dims_ = dims;
  argmax_.assign(trees * dims, -1);
  output_.ResetShape({trees, dims});
  const float* x = features.data();
  ctx_->ParallelFor(0, trees, 8, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      float* best = output_.data() + t * dims;
      int* arg = argmax_.data() + t * dims;
      std::fill(best, best + dims, -std::numeric_limits<float>::infinity());
      // Rows ascending with a strict '>': the first maximum wins.
      for (size_t r = batch.offsets[t]; r < batch.offsets[t + 1]; ++r) {
        if (batch.votes[r] == 0.0f) continue;
        const float* row = x + r * dims;
        for (size_t d = 0; d < dims; ++d) {
          if (row[d] > best[d]) {
            best[d] = row[d];
            arg[d] = static_cast<int>(r);
          }
        }
      }
      // A tree with no voting row pools to zero.
      for (size_t d = 0; d < dims; ++d) {
        if (arg[d] < 0) best[d] = 0.0f;
      }
    }
  });
  return output_;
}

Tensor& MaskedDynamicPooling::Backward(const Tensor& grad_output) {
  const size_t dims = dims_;
  const size_t trees = dims == 0 ? 0 : argmax_.size() / dims;
  PRESTROID_CHECK_EQ(grad_output.rank(), 2u);
  PRESTROID_CHECK_EQ(grad_output.dim(0), trees);
  PRESTROID_CHECK_EQ(grad_output.dim(1), dims);
  grad_input_.ResetShape({input_rows_, dims});
  grad_input_.Fill(0.0f);
  const float* go = grad_output.data();
  float* gi = grad_input_.data();
  // argmax rows lie inside their own tree, so trees write disjoint rows.
  ctx_->ParallelFor(0, trees, 8, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      for (size_t d = 0; d < dims; ++d) {
        const int r = argmax_[t * dims + d];
        if (r >= 0) gi[static_cast<size_t>(r) * dims + d] = go[t * dims + d];
      }
    }
  });
  return grad_input_;
}

}  // namespace prestroid
