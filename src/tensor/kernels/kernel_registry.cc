#include "tensor/kernels/kernel_registry.h"

#include <cstdlib>

namespace prestroid {

KernelRegistry::KernelRegistry() { backends_.fill(DefaultBackend()); }

KernelBackend KernelRegistry::DefaultBackend() {
  static const KernelBackend resolved = [] {
    const char* env = std::getenv("PRESTROID_KERNEL");
    if (env != nullptr) {
      std::optional<KernelBackend> parsed = ParseBackend(env);
      if (parsed.has_value()) return *parsed;
    }
    return KernelBackend::kBlocked;
  }();
  return resolved;
}

Status KernelRegistry::ValidateEnv() {
  const char* env = std::getenv("PRESTROID_KERNEL");
  if (env == nullptr || ParseBackend(env).has_value()) return Status::OK();
  return Status::InvalidArgument(
      std::string("unrecognized PRESTROID_KERNEL value \"") + env +
      "\"; accepted values: scalar, blocked");
}

const char* KernelRegistry::BackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kBlocked:
      return "blocked";
  }
  return "unknown";
}

std::optional<KernelBackend> KernelRegistry::ParseBackend(
    const std::string& name) {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "blocked") return KernelBackend::kBlocked;
  return std::nullopt;
}

}  // namespace prestroid
