#include "nn/tree_conv.h"

#include <cstring>
#include <limits>
#include <utility>

#include "tensor/kernels/kernel_registry.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace prestroid {

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

Tensor& TreeConvLayer::Forward(const Tensor& features,
                               const TreeStructure& structure) {
  PRESTROID_CHECK_EQ(features.rank(), 3u);
  const size_t batch = features.dim(0);
  const size_t nodes = features.dim(1);
  PRESTROID_CHECK_EQ(features.dim(2), in_features_);
  PRESTROID_CHECK_EQ(structure.batch_size(), batch);
  PRESTROID_CHECK_EQ(structure.max_nodes(), nodes);

  input_cache_.CopyFrom(features);
  structure_cache_ = &structure;

  // Frozen inference always takes the im2col lowering — that is the operand
  // layout the resident weights were built for.
  if (frozen() ||
      ctx_->kernels().backend(KernelOp::kTreeConv) == KernelBackend::kBlocked) {
    return ForwardBlocked(structure);
  }

  output_.ResetShape({batch, nodes, out_features_});
  ctx_->AddOp();
  // 3 child positions x multiply-add per (node, in, out) triple.
  ctx_->AddFlops(6ull * batch * nodes * in_features_ * out_features_);
  // Helper: out_row += x_row * W, with x_row [in], W [in, out].
  auto accumulate = [&](const float* x_row, const Tensor& w, float* out_row) {
    for (size_t i = 0; i < in_features_; ++i) {
      const float xv = x_row[i];
      if (xv == 0.0f) continue;
      const float* w_row = w.data() + i * out_features_;
      for (size_t o = 0; o < out_features_; ++o) out_row[o] += xv * w_row[o];
    }
  };

  ctx_->ParallelFor(0, batch, 1, [&](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      for (size_t n = 0; n < nodes; ++n) {
        float* out_row = output_.data() + (b * nodes + n) * out_features_;
        for (size_t o = 0; o < out_features_; ++o) out_row[o] = bias_[o];
        const float* self_row =
            input_cache_.data() + (b * nodes + n) * in_features_;
        accumulate(self_row, w_self_, out_row);
        int l = structure.left[b][n];
        if (l >= 0) {
          accumulate(input_cache_.data() +
                         (b * nodes + static_cast<size_t>(l)) * in_features_,
                     w_left_, out_row);
        }
        int r = structure.right[b][n];
        if (r >= 0) {
          accumulate(input_cache_.data() +
                         (b * nodes + static_cast<size_t>(r)) * in_features_,
                     w_right_, out_row);
        }
      }
    }
  });
  return output_;
}

Tensor& TreeConvLayer::Backward(const Tensor& grad_output) {
  PRESTROID_CHECK(!frozen());  // no training while frozen
  PRESTROID_CHECK(structure_cache_ != nullptr);
  const TreeStructure& structure = *structure_cache_;
  const size_t batch = input_cache_.dim(0);
  const size_t nodes = input_cache_.dim(1);
  PRESTROID_CHECK_EQ(grad_output.dim(0), batch);
  PRESTROID_CHECK_EQ(grad_output.dim(1), nodes);
  PRESTROID_CHECK_EQ(grad_output.dim(2), out_features_);

  if (ctx_->kernels().backend(KernelOp::kTreeConv) == KernelBackend::kBlocked) {
    return BackwardBlocked(grad_output, structure);
  }

  grad_input_.ResetShape(input_cache_.shape());
  grad_input_.Fill(0.0f);
  ctx_->AddOp();
  ctx_->AddFlops(12ull * batch * nodes * in_features_ * out_features_);

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

  // Historical serial loop for trees [b0, b1), accumulating weight/bias
  // gradients into the given tensors.
  auto backward_range = [&](size_t b0, size_t b1, Tensor* gws, Tensor* gwl,
                            Tensor* gwr, Tensor* gb) {
    for (size_t b = b0; b < b1; ++b) {
      for (size_t n = 0; n < nodes; ++n) {
        const float* gy = grad_output.data() + (b * nodes + n) * out_features_;
        for (size_t o = 0; o < out_features_; ++o) (*gb)[o] += gy[o];
        const size_t self_off = (b * nodes + n) * in_features_;
        backprop_one(input_cache_.data() + self_off, gy, w_self_, gws,
                     grad_input_.data() + self_off);
        int l = structure.left[b][n];
        if (l >= 0) {
          const size_t off = (b * nodes + static_cast<size_t>(l)) * in_features_;
          backprop_one(input_cache_.data() + off, gy, w_left_, gwl,
                       grad_input_.data() + off);
        }
        int r = structure.right[b][n];
        if (r >= 0) {
          const size_t off = (b * nodes + static_cast<size_t>(r)) * in_features_;
          backprop_one(input_cache_.data() + off, gy, w_right_, gwr,
                       grad_input_.data() + off);
        }
      }
    }
  };

  const auto parts = ctx_->Partition(0, batch, 1);
  if (parts.size() <= 1) {
    backward_range(0, batch, &w_self_grad_, &w_left_grad_, &w_right_grad_,
                   &bias_grad_);
    return grad_input_;
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
  ctx_->ParallelFor(0, batch, 1, [&](size_t b0, size_t b1) {
    size_t c = 0;
    while (parts[c].first != b0) ++c;
    backward_range(b0, b1, &scratch[c][0], &scratch[c][1], &scratch[c][2],
                   &scratch[c][3]);
  });
  for (size_t c = 0; c < parts.size(); ++c) {
    w_self_grad_ += scratch[c][0];
    w_left_grad_ += scratch[c][1];
    w_right_grad_ += scratch[c][2];
    bias_grad_ += scratch[c][3];
    for (Tensor& t : scratch[c]) ctx_->ReleaseScratch(std::move(t));
  }
  return grad_input_;
}

void TreeConvLayer::GatherWindows(const TreeStructure& structure) {
  const size_t batch = input_cache_.dim(0);
  const size_t nodes = input_cache_.dim(1);
  const size_t in = in_features_;
  const size_t kc = 3 * in;
  packed_input_.ResetShape({batch * nodes, kc});
  const float* src = input_cache_.data();
  float* dst_base = packed_input_.data();
  // Trees own disjoint row ranges of the packed matrix, so the gather
  // parallelizes freely; null children pack as zero slices, which makes the
  // GEMM below contribute exactly nothing for them (no branches downstream).
  ctx_->ParallelFor(0, batch, 1, [&](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      for (size_t n = 0; n < nodes; ++n) {
        float* dst = dst_base + (b * nodes + n) * kc;
        std::memcpy(dst, src + (b * nodes + n) * in, in * sizeof(float));
        const int l = structure.left[b][n];
        if (l >= 0) {
          std::memcpy(dst + in,
                      src + (b * nodes + static_cast<size_t>(l)) * in,
                      in * sizeof(float));
        } else {
          std::memset(dst + in, 0, in * sizeof(float));
        }
        const int r = structure.right[b][n];
        if (r >= 0) {
          std::memcpy(dst + 2 * in,
                      src + (b * nodes + static_cast<size_t>(r)) * in,
                      in * sizeof(float));
        } else {
          std::memset(dst + 2 * in, 0, in * sizeof(float));
        }
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

Tensor& TreeConvLayer::ForwardBlocked(const TreeStructure& structure) {
  const size_t batch = input_cache_.dim(0);
  const size_t nodes = input_cache_.dim(1);
  GatherWindows(structure);
  if (frozen()) {
    resident_->Gemm(&output_, packed_input_, &bias_, GemmEpilogue::kBias,
                    ctx_);
    output_.ReshapeInPlace({batch, nodes, out_features_});
    return output_;
  }
  StackWeights();
  // One fused-bias GEMM covers every (node, position) pair:
  //   out[row] = [x_self | x_left | x_right] @ [W_self; W_left; W_right] + b
  // The GEMM op does its own flop/op accounting (2*rows*3in*out + rows*out).
  MatMulBiasInto(&output_, packed_input_, wcat_, bias_, ctx_);
  output_.ReshapeInPlace({batch, nodes, out_features_});
  return output_;
}

Tensor& TreeConvLayer::BackwardBlocked(const Tensor& grad_output,
                                       const TreeStructure& structure) {
  const size_t batch = input_cache_.dim(0);
  const size_t nodes = input_cache_.dim(1);
  const size_t rows = batch * nodes;
  const size_t in = in_features_;
  const size_t kc = 3 * in;
  PRESTROID_CHECK_EQ(packed_input_.dim(0), rows);
  PRESTROID_CHECK_EQ(packed_input_.dim(1), kc);

  // grad_output is a const rank-3 view; the GEMMs want [rows, out].
  gy2d_.CopyFrom(grad_output);
  gy2d_.ReshapeInPlace({rows, out_features_});

  // Weight gradients: d[W_self; W_left; W_right] = packed^T @ gy, then
  // split-added into the per-position accumulators. Weights are unchanged
  // since Forward, so restacking wcat_ here keeps the pair self-contained.
  StackWeights();
  MatMulTransposeAInto(&wgcat_, packed_input_, gy2d_, ctx_);
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
  SumRowsAccumulate(&bias_tmp_, gy2d_, ctx_);
  bias_grad_ += bias_tmp_;

  // Input gradients in window space: gxp = gy @ wcat^T, then scatter-added
  // back through the window map. Trees own disjoint slices of grad_input_
  // (children always live in their own tree), so the scatter parallelizes
  // over trees with a fixed within-tree node order — deterministic at any
  // thread count.
  MatMulTransposeBInto(&gxp_, gy2d_, wcat_, ctx_);
  grad_input_.ResetShape(input_cache_.shape());
  grad_input_.Fill(0.0f);
  const float* gxp = gxp_.data();
  float* gx_base = grad_input_.data();
  ctx_->ParallelFor(0, batch, 1, [&](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      for (size_t n = 0; n < nodes; ++n) {
        const float* g = gxp + (b * nodes + n) * kc;
        float* gx_self = gx_base + (b * nodes + n) * in;
        for (size_t i = 0; i < in; ++i) gx_self[i] += g[i];
        const int l = structure.left[b][n];
        if (l >= 0) {
          float* gx = gx_base + (b * nodes + static_cast<size_t>(l)) * in;
          for (size_t i = 0; i < in; ++i) gx[i] += g[in + i];
        }
        const int r = structure.right[b][n];
        if (r >= 0) {
          float* gx = gx_base + (b * nodes + static_cast<size_t>(r)) * in;
          for (size_t i = 0; i < in; ++i) gx[i] += g[2 * in + i];
        }
      }
    }
  });
  return grad_input_;
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
                                      const TreeStructure& structure) {
  PRESTROID_CHECK_EQ(features.rank(), 3u);
  const size_t batch = features.dim(0);
  const size_t nodes = features.dim(1);
  const size_t dims = features.dim(2);
  PRESTROID_CHECK_EQ(structure.batch_size(), batch);
  input_shape_ = features.shape();
  argmax_.assign(batch * dims, -1);

  output_.ResetShape({batch, dims});
  output_.Fill(0.0f);
  ctx_->ParallelFor(0, batch, 8, [&](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      for (size_t d = 0; d < dims; ++d) {
        float best = -std::numeric_limits<float>::infinity();
        int best_n = -1;
        for (size_t n = 0; n < nodes; ++n) {
          if (structure.mask[b][n] == 0.0f) continue;
          float v = features.At(b, n, d);
          if (v > best) {
            best = v;
            best_n = static_cast<int>(n);
          }
        }
        if (best_n >= 0) {
          output_.At(b, d) = best;
          argmax_[b * dims + d] = best_n;
        }  // else: fully-masked tree pools to zero.
      }
    }
  });
  return output_;
}

Tensor& MaskedDynamicPooling::Backward(const Tensor& grad_output) {
  const size_t batch = input_shape_[0];
  const size_t dims = input_shape_[2];
  PRESTROID_CHECK_EQ(grad_output.dim(0), batch);
  PRESTROID_CHECK_EQ(grad_output.dim(1), dims);
  grad_input_.ResetShape(input_shape_);
  grad_input_.Fill(0.0f);
  ctx_->ParallelFor(0, batch, 8, [&](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      for (size_t d = 0; d < dims; ++d) {
        int n = argmax_[b * dims + d];
        if (n >= 0) {
          grad_input_.At(b, static_cast<size_t>(n), d) = grad_output.At(b, d);
        }
      }
    }
  });
  return grad_input_;
}

}  // namespace prestroid
