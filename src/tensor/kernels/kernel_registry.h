#ifndef PRESTROID_TENSOR_KERNELS_KERNEL_REGISTRY_H_
#define PRESTROID_TENSOR_KERNELS_KERNEL_REGISTRY_H_

#include <array>
#include <cstddef>
#include <optional>
#include <string>

#include "util/status.h"

namespace prestroid {

/// Implementation family for the hot numeric kernels.
///
/// kScalar is the historical reference substrate: branchy, one float at a
/// time, bit-for-bit reproducible against every pre-kernel-layer release.
/// kBlocked is the register-tiled, cache-blocked, auto-vectorized layer in
/// tensor/kernels/ (packed panels, fused epilogues); it changes float
/// accumulation order, so results agree with kScalar to ~1e-5 relative, not
/// bit-for-bit (see DESIGN.md §5.2/§5.3).
enum class KernelBackend { kScalar, kBlocked };

/// Dispatchable op families. Per-op granularity keeps A/B experiments cheap:
/// e.g. blocked GEMM with the historical tree-conv loops, or vice versa.
enum class KernelOp {
  kGemm,            // MatMul / MatMulBias / MatMulBiasRelu
  kGemmTransposeA,  // A^T @ B (weight-gradient reductions)
  kGemmTransposeB,  // A @ B^T (input-gradient products)
  kTreeConv,        // tree-convolution forward/backward lowering
};

/// Number of entries in KernelOp.
inline constexpr size_t kNumKernelOps = 4;

/// Per-op backend choice carried by an ExecutionContext. Defaults to
/// DefaultBackend() (env PRESTROID_KERNEL, else blocked) for every op; the
/// scalar path therefore stays one flag away everywhere.
class KernelRegistry {
 public:
  KernelRegistry();

  KernelBackend backend(KernelOp op) const {
    return backends_[static_cast<size_t>(op)];
  }
  void SetBackend(KernelOp op, KernelBackend backend) {
    backends_[static_cast<size_t>(op)] = backend;
  }
  void SetAllBackends(KernelBackend backend) { backends_.fill(backend); }

  /// Process-wide default: PRESTROID_KERNEL=scalar|blocked if set (resolved
  /// once, at first use), otherwise kBlocked. An unparseable value resolves
  /// to kBlocked here so mid-run lookups stay total; entry points must call
  /// ValidateEnv() first so a typo fails fast instead of silently changing
  /// the backend (the pre-PR-8 behavior).
  static KernelBackend DefaultBackend();

  /// Startup validation of the PRESTROID_KERNEL override: OK when the
  /// variable is unset or names a known backend, kInvalidArgument (with the
  /// accepted set spelled out) otherwise. Reads the environment on every
  /// call — unlike DefaultBackend() it is not memoized, so tests can
  /// exercise it directly.
  static Status ValidateEnv();

  /// "scalar" / "blocked" <-> KernelBackend.
  static const char* BackendName(KernelBackend backend);
  static std::optional<KernelBackend> ParseBackend(const std::string& name);

 private:
  std::array<KernelBackend, kNumKernelOps> backends_;
};

}  // namespace prestroid

#endif  // PRESTROID_TENSOR_KERNELS_KERNEL_REGISTRY_H_
