#include "util/wake_deferral.h"

namespace prestroid {

namespace {

thread_local WakeDeferral* current_scope = nullptr;

}  // namespace

WakeDeferral::WakeDeferral() : outer_(current_scope) { current_scope = this; }

WakeDeferral::~WakeDeferral() {
  current_scope = outer_;
  for (auto& [key, wake] : pending_) wake();
}

bool WakeDeferral::Defer(const void* key, std::function<void()> wake) {
  WakeDeferral* scope = current_scope;
  if (scope == nullptr) return false;
  for (const auto& registered : scope->pending_) {
    if (registered.first == key) return true;
  }
  scope->pending_.emplace_back(key, std::move(wake));
  return true;
}

}  // namespace prestroid
