#include "tensor/kernels/resident_weights.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace prestroid {

namespace {

/// Matches the ops-layer ParallelFor grain (tensor/ops.cc): roughly 2^15
/// flops per chunk so tiny serving batches stay inline on the caller.
constexpr size_t kGrainFlops = 1u << 15;

size_t RowGrain(size_t row_cost_flops) {
  return std::max<size_t>(1, kGrainFlops / std::max<size_t>(1, row_cost_flops));
}

}  // namespace

ResidentWeights ResidentWeights::Build(const Tensor& weights) {
  PRESTROID_CHECK_EQ(weights.rank(), 2u);
  ResidentWeights rw;
  rw.rows_ = weights.dim(0);
  rw.cols_ = weights.dim(1);
  rw.packed_.resize(GemmPackedBSize(rw.rows_, rw.cols_));
  GemmPackB(rw.rows_, rw.cols_, weights.data(), /*rsb=*/rw.cols_, /*csb=*/1,
            rw.packed_.data());
  return rw;
}

void ResidentWeights::Gemm(Tensor* out, const Tensor& a, const Tensor* bias,
                           GemmEpilogue epilogue, ExecutionContext* ctx) const {
  PRESTROID_CHECK(ctx != nullptr);
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  PRESTROID_CHECK_EQ(a.dim(1), rows_);
  const size_t m = a.dim(0), k = rows_, n = cols_;
  if (bias != nullptr) PRESTROID_CHECK_EQ(bias->size(), n);
  out->ResetShape({m, n});
  const float* ap = a.data();
  const float* pb = packed_.data();
  const float* biasp = bias != nullptr ? bias->data() : nullptr;
  float* op = out->data();
  ctx->AddOp();
  // Flop accounting mirrors MatMulEpilogueInto so ExecStats comparisons
  // between the per-call-packing and resident paths line up.
  uint64_t flops = 2ull * m * k * n;
  if (epilogue == GemmEpilogue::kBias) flops += 1ull * m * n;
  if (epilogue == GemmEpilogue::kBiasRelu) flops += 2ull * m * n;
  ctx->AddFlops(flops);
  ctx->ParallelFor(0, m, RowGrain(2 * k * n), [&](size_t i0, size_t i1) {
    GemmBlockedRows(i0, i1, k, n, ap, /*rsa=*/k, /*csa=*/1, pb, op, n, biasp,
                    epilogue, /*accumulate=*/false);
  });
}

}  // namespace prestroid
