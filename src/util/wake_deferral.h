#ifndef PRESTROID_UTIL_WAKE_DEFERRAL_H_
#define PRESTROID_UTIL_WAKE_DEFERRAL_H_

#include <functional>
#include <utility>
#include <vector>

namespace prestroid {

/// Coalesces the wake-ups that callbacks raise on one thread while a scope is
/// open. A batch worker opens a WakeDeferral around the callbacks of one
/// batch; a completion sink that would otherwise wake its consumer at once
/// (e.g. an event loop's self-pipe) calls Defer instead, and each distinct
/// sink is woken exactly once when the scope closes. One batch therefore
/// costs each consumer one wakeup, however the consumer interleaves with the
/// batch's callbacks — and the producer needs no knowledge of the consumer.
///
/// Scopes nest; a Defer registers with the innermost open scope.
class WakeDeferral {
 public:
  WakeDeferral();
  /// Runs every registered wake, in registration order.
  ~WakeDeferral();

  WakeDeferral(const WakeDeferral&) = delete;
  WakeDeferral& operator=(const WakeDeferral&) = delete;

  /// With a scope open on the calling thread, registers `wake` under `key`
  /// (a later Defer with a registered key is a no-op) and returns true.
  /// Returns false, registering nothing, when no scope is open: the caller
  /// must wake its consumer itself.
  static bool Defer(const void* key, std::function<void()> wake);

 private:
  WakeDeferral* outer_;
  std::vector<std::pair<const void*, std::function<void()>>> pending_;
};

}  // namespace prestroid

#endif  // PRESTROID_UTIL_WAKE_DEFERRAL_H_
