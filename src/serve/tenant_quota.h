#ifndef PRESTROID_SERVE_TENANT_QUOTA_H_
#define PRESTROID_SERVE_TENANT_QUOTA_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

namespace prestroid::serve {

/// Numeric tenant identity carried on every sharded-serving request.
/// Tenant 0 is the default tenant; single-tenant deployments never need to
/// set anything else.
using TenantId = uint32_t;

/// Per-tenant admission budget. Zero means "unlimited" for each knob, so a
/// default-constructed quota admits everything (the single-tenant
/// configuration).
struct TenantQuota {
  /// Requests a tenant may have queued or executing at once. Submissions
  /// beyond it are shed with kResourceExhausted — they never reach a shard
  /// queue, so one chatty tenant cannot displace others' admission slots.
  size_t max_in_flight = 0;
  /// Estimated featurization scratch bytes the tenant's in-flight requests
  /// may pin at once (charged at admission from plan size, released on
  /// response).
  size_t max_scratch_bytes = 0;
};

/// Monotonic per-tenant counters plus an instantaneous usage snapshot.
struct TenantCounters {
  TenantId tenant = 0;
  size_t admitted = 0;       // requests that passed quota admission
  size_t quota_sheds = 0;    // requests refused over quota
  size_t in_flight = 0;      // snapshot: currently admitted, not yet resolved
  size_t scratch_bytes = 0;  // snapshot: currently charged scratch estimate
};

/// Thread-safe per-tenant admission table layered on top of the PlanLimits
/// governor: limits bound what one PLAN may cost, quotas bound what one
/// TENANT may have outstanding. TryAdmit/Release bracket each request's
/// lifetime; both are O(1) hash-map updates under one mutex, deliberately
/// cheap enough to sit on the submission fast path.
class TenantQuotaTable {
 public:
  /// `default_quota` applies to any tenant without an explicit SetQuota.
  explicit TenantQuotaTable(TenantQuota default_quota = {})
      : default_quota_(default_quota) {}

  /// Installs (or replaces) one tenant's quota. Takes effect on the next
  /// TryAdmit; already-admitted requests are never retroactively shed.
  void SetQuota(TenantId tenant, TenantQuota quota);

  /// Admits one request charging `scratch_bytes` against the tenant's
  /// budgets, or returns kResourceExhausted naming the exhausted dimension
  /// (counted in quota_sheds). An admitted request MUST be Released exactly
  /// once when its promise resolves.
  Status TryAdmit(TenantId tenant, size_t scratch_bytes);

  /// Returns one admission's in-flight slot and scratch charge.
  void Release(TenantId tenant, size_t scratch_bytes);

  TenantCounters Snapshot(TenantId tenant) const;

  /// Every tenant ever seen, ordered by tenant id (stable bench output).
  std::vector<TenantCounters> SnapshotAll() const;

  /// Sum of quota_sheds across tenants (the ServingStats roll-up).
  size_t TotalSheds() const;

 private:
  struct TenantState {
    TenantQuota quota;
    bool has_quota = false;  // explicit SetQuota vs default
    size_t admitted = 0;
    size_t quota_sheds = 0;
    size_t in_flight = 0;
    size_t scratch_bytes = 0;
  };

  TenantState& StateLocked(TenantId tenant);

  TenantQuota default_quota_;
  mutable std::mutex mu_;
  std::unordered_map<TenantId, TenantState> tenants_;
};

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_TENANT_QUOTA_H_
