#ifndef PRESTROID_SERVE_SERVING_SHARD_H_
#define PRESTROID_SERVE_SERVING_SHARD_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cost/serving_estimator.h"
#include "plan/plan_limits.h"
#include "plan/plan_node.h"
#include "plan/plan_stats.h"
#include "serve/plan_cache.h"
#include "serve/tenant_quota.h"
#include "util/histogram.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace prestroid::serve {

/// Admission-queue and batching policy for one serving shard, applied
/// uniformly to every shard of a ShardedServingRuntime.
struct ServingRuntimeConfig {
  /// Bounded request queue; a Submit beyond this depth is rejected with
  /// kResourceExhausted instead of blocking the producer.
  size_t queue_depth = 256;
  /// Largest fused forward pass. Every batch size, 1 included, takes the same
  /// fingerprint-cached, fused path.
  size_t max_batch = 32;
  /// After the first request of a batch arrives, how long the worker waits
  /// for the batch to fill before running a partial one. 0 (the default) is
  /// work-conserving: the worker serves whatever is queued, up to max_batch,
  /// as soon as it wakes, so batches form from the backlog under load and a
  /// lone request never waits for company. Forward cost is nearly linear in
  /// batch size, so waiting for a fuller batch costs latency and saves
  /// little compute.
  size_t batch_window_us = 0;
  /// Plan-fingerprint cache entries; 0 disables the cache.
  size_t cache_entries = 1024;
  /// Resource governor the ShardedServingRuntime front door applies to every
  /// submitted plan *before* it is fingerprinted or featurized. Over-limit
  /// plans are rejected at admission (kInvalidArgument, counted in
  /// ServingStats::limit_rejects) so a hostile plan never reaches the
  /// hashing/encoding machinery.
  plan::PlanLimits plan_limits;
};

/// Receives one request's answer. Runs exactly once, on the shard's batch
/// worker (or on the thread calling Shutdown() of a never-started shard),
/// after the batch was served and the serving lock released; the next batch
/// waits for it, so it must return promptly. A batch's callbacks run inside
/// one WakeDeferral scope, so a wake deferred there fires once, after the
/// batch's last callback.
using EstimateCallback = std::function<void(cost::ServingEstimate)>;

/// Admission charges riding along with one routed request: the tenant's
/// in-flight/scratch-quota slot and the box-level memory-tracker charge.
/// Released exactly once — when the request resolves, or immediately if the
/// shard rejects the submission. A default-constructed ticket releases
/// nothing.
struct ShardTicket {
  TenantQuotaTable* quotas = nullptr;
  TenantId tenant = 0;
  MemoryTracker* memory = nullptr;
  size_t charged_bytes = 0;

  void Release() {
    if (quotas != nullptr) {
      quotas->Release(tenant, charged_bytes);
      quotas = nullptr;
    }
    if (memory != nullptr) {
      memory->Release(charged_bytes);
      memory = nullptr;
    }
  }
};

/// One shard of the batched serving tier: a bounded MPMC admission queue, a
/// single batch-worker thread, a plan-fingerprint feature cache, and a
/// dedicated ServingEstimator. ShardedServingRuntime owns N of them and is
/// the only producer: it governs, sizes, fingerprints and routes each plan.
///
/// The facade submits plans, each with the callback that receives its
/// answer; the worker takes whatever is queued (up to max_batch, after the
/// optional batch window), featurizes each distinct plan once (fingerprint
/// LRU cache), runs ONE fused eval-mode forward pass per batch, and then
/// resolves the whole batch back to back. Requests that cannot take the
/// model tier degrade per item through the estimator's fallback chain, so a
/// batch never fails wholesale.
///
/// The fused forward runs in eval mode (dropout off, batch-norm running
/// statistics, masked per-tree pooling), so each row's prediction is
/// independent of what else shares the batch: batched results equal
/// single-query EstimateWithFallback results regardless of arrival order.
///
/// Thread-safety: SubmitRouted/StatsSnapshot/LatencySnapshot/InvalidateCache
/// may be called from any thread. The estimator, cache, and scratch arena
/// are confined to the worker thread (snapshot readers take the same lock
/// the worker holds while serving a batch). The estimator must not be used
/// directly by other threads while the shard is running.
///
/// Lifetime: submitted plans are borrowed, not copied — the caller must keep
/// a plan alive until its callback runs. The estimator (and the tracker, if
/// any) must outlive the shard.
class ServingShard {
 public:
  /// `memory` (optional) tracks the shard's featurization scratch arena; the
  /// arena's block capacity is charged via MemoryTracker::Charge (the
  /// admission-time per-request charge is the enforcement point).
  explicit ServingShard(cost::ServingEstimator* estimator,
                        ServingRuntimeConfig config = {},
                        MemoryTracker* memory = nullptr);
  ~ServingShard();

  ServingShard(const ServingShard&) = delete;
  ServingShard& operator=(const ServingShard&) = delete;

  /// Freezes the attached pipeline's weights (FreezeLocked) and spawns the
  /// batch worker. Submissions made before Start() sit in the queue
  /// (admission control applies) and are served once it runs.
  /// Restartable: Start() after Shutdown() reopens admission and resets the
  /// queue high-watermark, so each run reports its own peak.
  Status Start();

  /// Stops accepting work, drains every queued request (running its
  /// callback), and joins the worker. If Start() was never called the drain
  /// happens inline on the calling thread. Then thaws the attached pipeline
  /// and releases its resident-weight charge. Idempotent; Start() may be
  /// called again afterwards.
  void Shutdown();

  /// Enqueues one routed request. The facade has already run the governor,
  /// computed `stats` (reused for admission and fallbacks, so the worker
  /// never walks the plan again) and `fingerprint` (used verbatim for the
  /// cache key, so identical plans routed to this shard share one
  /// featurization), and charged the admission `ticket`. Takes ownership of
  /// the ticket unconditionally — it is released when the request resolves,
  /// or immediately on rejection. Returns kResourceExhausted when the queue
  /// is full and kInvalidArgument after Shutdown(); `done` runs only for an
  /// accepted request. deadline_ms <= 0 uses the estimator's configured
  /// default; the deadline covers queue wait + compute.
  Status SubmitRouted(const plan::PlanNode& plan, double deadline_ms,
                      uint64_t fingerprint, plan::PlanStats stats,
                      ShardTicket ticket, EstimateCallback done);

  /// Retires every cached plan encoding (e.g. after catalog churn or a
  /// pipeline swap made old featurizations stale).
  void InvalidateCache();

  /// Acquires this shard's serving lock, blocking until the in-flight batch
  /// (if any) completes. The cross-shard swap path locks every shard this
  /// way (in shard order — the only multi-shard lock site, so no deadlock),
  /// then exchanges pipelines via SwapPipelineLocked.
  std::unique_lock<std::mutex> LockServing() const {
    return std::unique_lock<std::mutex>(serve_mu_);
  }

  /// Replaces the estimator's model tier while the shard keeps serving
  /// (RCU-style); the caller holds LockServing(), so the in-flight batch (if
  /// any) has finished on the old model. Attaches `pipeline`, resets the
  /// model-latency EWMA, bumps the feature-cache generation (stale
  /// featurizations can never reach the new model), and returns the previous
  /// pipeline, thawed, so the caller can retain it for instant rollback or
  /// train it. The incoming pipeline is frozen (FreezeLocked). Queued
  /// requests are never dropped: they run on whichever model is attached
  /// when their batch is served. nullptr detaches the model tier (the
  /// degradation chain keeps answering). `is_rollback` only selects which
  /// ServingStats counter (model_swaps vs model_rollbacks) ticks. No
  /// fault-injection check: ShardedServingRuntime::SwapPipelines performs
  /// one for the whole multi-shard transaction.
  std::unique_ptr<core::PrestroidPipeline> SwapPipelineLocked(
      std::unique_ptr<core::PrestroidPipeline> pipeline, bool is_rollback);

  /// Estimator counters merged with the shard's queue/cache counters.
  cost::ServingStats StatsSnapshot() const;

  /// End-to-end request latency distribution (milliseconds, including queue
  /// wait), over every request the worker has resolved.
  LatencyHistogram LatencySnapshot() const;

  const ServingRuntimeConfig& config() const { return config_; }
  cost::ServingEstimator* estimator() { return estimator_; }

  /// High-water mark of the worker's scratch-arena usage (bytes), for the
  /// facade's memory observability.
  size_t arena_peak_bytes() const;

  /// Arena block capacity currently charged against the box MemoryTracker.
  /// Retained across Reset by design — this is the shard's steady-state
  /// memory footprint, not a leak.
  size_t arena_capacity_bytes() const;

  /// Bytes of the attached pipeline's resident weight panels; 0 when it is
  /// not frozen or none is attached. Charged against the box MemoryTracker
  /// while resident.
  size_t resident_weight_bytes() const;

 private:
  struct PendingRequest {
    const plan::PlanNode* plan;
    double deadline_ms;
    std::chrono::steady_clock::time_point enqueue_time;
    uint64_t fingerprint;   // facade-computed cache key
    plan::PlanStats stats;  // facade-computed shape statistics
    ShardTicket ticket;
    EstimateCallback done;
    cost::ServingEstimate answer;  // filled while the batch is served
  };

  void WorkerLoop();
  /// Serves one drained batch (serve_mu_ held): per-item admission + cache
  /// lookup, one fused forward pass for the admitted items, per-item
  /// fallback for the rest. Fills each request's answer.
  void ServeBatch(std::vector<PendingRequest>& batch);
  /// Releases each served request's ticket and runs its callback, back to
  /// back, after serve_mu_ is released, inside one WakeDeferral scope.
  static void Resolve(std::vector<PendingRequest>& batch);

  /// Freezes the attached pipeline's GEMM weights into resident fp32 panels
  /// (serve_mu_ held; PrestroidPipeline::FreezeInferenceWeights decides by
  /// the model's kernel backends) and charges their bytes to memory_,
  /// releasing any prior charge first. Called from Start() and after every
  /// SwapPipelineLocked.
  void FreezeLocked();
  /// Releases the resident-weight charge (serve_mu_ held).
  void ReleaseResidentLocked();

  cost::ServingEstimator* estimator_;
  ServingRuntimeConfig config_;
  MemoryTracker* memory_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // worker waits: work available / stop
  std::deque<PendingRequest> queue_;
  bool stop_ = false;
  size_t rejected_requests_ = 0;
  size_t queue_high_watermark_ = 0;

  /// Serializes worker access to the estimator + cache + histogram + arena
  /// against snapshot readers and pipeline swaps.
  mutable std::mutex serve_mu_;
  PlanFeatureCache cache_;
  uint64_t cache_generation_ = 0;
  LatencyHistogram latency_hist_;
  size_t model_swaps_ = 0;
  size_t model_rollbacks_ = 0;
  size_t resident_weight_bytes_ = 0;  // charged to memory_ while set
  /// Per-batch staging storage (deadline/pointer arrays), reset per batch and
  /// charged against the box-level tracker. Worker-confined under serve_mu_.
  ScratchArena arena_;

  std::thread worker_;
  bool started_ = false;
};

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_SERVING_SHARD_H_
