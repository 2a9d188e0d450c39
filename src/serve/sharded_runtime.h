#ifndef PRESTROID_SERVE_SHARDED_RUNTIME_H_
#define PRESTROID_SERVE_SHARDED_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "cost/serving_estimator.h"
#include "plan/plan_node.h"
#include "serve/serving_shard.h"
#include "serve/tenant_quota.h"
#include "util/histogram.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace prestroid::serve {

/// Topology and admission policy of the sharded serving tier.
struct ShardedRuntimeConfig {
  /// Number of shards (each an independent queue + batch worker + feature
  /// cache + estimator).
  size_t shards = 1;
  /// Per-shard queue/batch/cache policy, applied uniformly.
  ServingRuntimeConfig shard;
  /// Quota applied to tenants without an explicit SetTenantQuota (zeros =
  /// unlimited, the single-tenant parity configuration).
  TenantQuota default_tenant_quota;
  /// Box-level cap on admitted scratch bytes across every tenant and shard;
  /// 0 accounts without refusing.
  size_t memory_budget_bytes = 0;
  /// Featurization scratch estimate charged per plan node at admission (the
  /// unit the quota and memory budgets are denominated in).
  size_t per_node_scratch_bytes = 512;
};

/// The serving runtime: N ServingShards (N >= 1) behind one admission front
/// door. Every serving path — the HTTP service, the CLI's offline replay,
/// the model lifecycle manager and the benches — runs through it.
///
/// Every Submit runs the PlanLimits governor FIRST (a rejected plan is never
/// fingerprinted — the ingestion-hardening invariant), then tenant-quota and
/// memory-budget admission (sized by the plan's shape statistics, which ride
/// along to the shard so it never walks the plan again), then hashes the
/// plan once and routes it to shard `fingerprint % shards`. Identical plans
/// therefore always land on the same shard and share one cached
/// featurization — the tier-wide hit rate matches a single shard's cache
/// instead of splitting N ways.
///
/// Each admitted request carries a ShardTicket holding its tenant-quota slot
/// and memory charge; the owning shard releases the ticket when the request
/// resolves (or immediately if its queue rejects), so admission state can
/// never leak.
///
/// Completion is callback-driven: every request resolves by running the
/// EstimateCallback it was submitted with (the HTTP service's callback hands
/// the answer straight to the event loop). The future-returning Submit is a
/// thin adapter over it for in-process callers.
///
/// SwapPipelines locks every shard in shard order (the only multi-shard lock
/// site), performs one fault-injection check, and exchanges all pipelines
/// before any shard resumes — no request anywhere observes a half-swapped
/// tier.
///
/// Lifetime: the estimators (one per shard — each owns its model-tier
/// pipeline and fallback tiers) must outlive the runtime. Submitted plans
/// are borrowed until their request resolves.
class ShardedServingRuntime {
 public:
  /// `estimators.size()` must equal `config.shards` (checked). Each shard
  /// serializes access to its own estimator; estimators must not be shared
  /// between shards or used directly while the tier is running.
  ShardedServingRuntime(std::vector<cost::ServingEstimator*> estimators,
                        ShardedRuntimeConfig config = {});
  ~ShardedServingRuntime();

  ShardedServingRuntime(const ShardedServingRuntime&) = delete;
  ShardedServingRuntime& operator=(const ShardedServingRuntime&) = delete;

  /// Starts every shard's batch worker. On failure, already-started shards
  /// keep running (Shutdown stops them).
  Status Start();

  /// Stops and drains every shard. Idempotent.
  void Shutdown();

  /// Installs (or replaces) one tenant's admission quota.
  void SetTenantQuota(TenantId tenant, TenantQuota quota);

  /// Admission + routing: governor -> tenant quota -> memory budget ->
  /// fingerprint -> shard queue. Returns kInvalidArgument for a governor
  /// reject (limit_rejects), kResourceExhausted for a quota shed (per-tenant
  /// quota_sheds), a memory-budget denial (memory_denied), or a full shard
  /// queue (rejected_requests), and kInvalidArgument after Shutdown(). On
  /// success `done` later runs exactly once with the answer (see
  /// EstimateCallback for its thread and constraints); on error it never
  /// runs.
  Status Submit(const plan::PlanNode& plan, double deadline_ms,
                TenantId tenant, EstimateCallback done);

  /// The same admission, for in-process callers (the CLI replay, the
  /// benches, tests): the returned future receives the answer.
  Result<std::future<cost::ServingEstimate>> Submit(const plan::PlanNode& plan,
                                                    double deadline_ms = 0.0,
                                                    TenantId tenant = 0);

  /// Retires every shard's cached plan encodings.
  void InvalidateCache();

  /// Counters merged across shards (sums; see ServingStats::MergeFrom) plus
  /// the facade's own governor/quota/memory admission counters.
  cost::ServingStats StatsSnapshot() const;

  /// Tier-wide latency distribution: every shard's histogram merged.
  LatencyHistogram LatencySnapshot() const;

  /// Per-tenant admission counters, ordered by tenant id.
  std::vector<TenantCounters> TenantSnapshot() const;

  /// Box-level scratch-memory accounting (admission charges + arena blocks).
  MemoryTrackerStats MemorySnapshot() const;

  const ShardedRuntimeConfig& config() const { return config_; }

  /// Shard a fingerprint routes to: `fingerprint % shards`.
  static size_t RouteShard(uint64_t fingerprint, size_t shards) {
    return static_cast<size_t>(fingerprint % shards);
  }

  /// Direct shard access for tests and per-shard observability.
  ServingShard& shard(size_t index) { return *shards_[index]; }
  const ServingShard& shard(size_t index) const { return *shards_[index]; }

  /// Number of pipeline instances a swap must supply (one per shard).
  size_t ShardCount() const { return shards_.size(); }

  /// Atomically replaces every shard's model tier; see the class comment.
  /// `pipelines` must have exactly ShardCount() entries (entry i goes to
  /// shard i; nullptr detaches that shard's model tier). Returns the
  /// previous pipelines in shard order for rollback retention. On failure
  /// (a size mismatch or an injected FaultSite::kModelSwap) nothing is moved
  /// out of `pipelines`, so the caller still owns them. `is_rollback`
  /// selects which ServingStats counter each shard increments.
  Result<std::vector<std::unique_ptr<core::PrestroidPipeline>>> SwapPipelines(
      std::vector<std::unique_ptr<core::PrestroidPipeline>>&& pipelines,
      bool is_rollback);

 private:
  ShardedRuntimeConfig config_;
  MemoryTracker memory_;
  TenantQuotaTable quotas_;
  std::vector<std::unique_ptr<ServingShard>> shards_;
  /// Governor rejections: every request is governed here exactly once.
  std::atomic<size_t> limit_rejects_{0};
};

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_SHARDED_RUNTIME_H_
