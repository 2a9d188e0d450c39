#ifndef PRESTROID_NET_ESTIMATE_SERVICE_H_
#define PRESTROID_NET_ESTIMATE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "cost/serving_estimator.h"
#include "net/http_server.h"
#include "plan/catalog.h"
#include "plan/plan_limits.h"
#include "plan/plan_node.h"
#include "serve/sharded_runtime.h"
#include "sql/ast.h"
#include "util/histogram.h"

namespace prestroid::net {

/// Request-handling policy of the estimate endpoint.
struct EstimateServiceConfig {
  /// Governor applied to plan-text bodies (the same limits the runtime's
  /// admission re-checks).
  plan::PlanLimits plan_limits;
  /// Deadline used when a request carries no X-Deadline-Ms header; 0 means
  /// no deadline.
  double default_deadline_ms = 0.0;
  /// How many X-Idempotency-Key values of delivered labeled observations to
  /// remember (FIFO eviction). A retried labeled POST whose key was already
  /// delivered still gets its estimate, but the label is NOT re-delivered —
  /// the at-most-once guarantee the resilient client's retry storm relies
  /// on.
  size_t idempotency_window = 4096;
};

/// The HTTP estimate API over a ShardedServingRuntime.
///
/// Routes (RegisterRoutes):
///   POST /estimate   body = plan text (default) or raw SQL (Content-Type
///                    containing "sql", or ?input=sql). Headers:
///                    X-Deadline-Ms (per-request deadline, propagated to the
///                    runtime's queue-deadline check), X-Tenant (admission
///                    quota id), X-Actual-Cpu-Minutes (ground-truth label
///                    feeding the continual-retraining hook),
///                    X-Idempotency-Key (dedup token: a labeled observation
///                    is delivered at most once per key, so clients may
///                    retry labeled posts freely).
///                    Responds 200 with {"cpu_minutes", "tier", "degraded",
///                    ...}; a degraded (non-model-tier) answer is still 200
///                    — the degradation chain is the availability story —
///                    with "degraded": true and the reason. Submit errors map
///                    through HttpStatusForCode (429 shed, 400 bad plan,
///                    503 down).
///   GET /healthz     liveness + shard count.
///   GET /metrics     Prometheus text exposition (net/metrics.h).
///
/// Handlers run on the server's event-loop thread. /estimate keeps its
/// Responder, so the loop keeps serving other connections while the
/// runtime's batch workers compute; concurrent requests micro-batch inside
/// the runtime. The runtime's completion callback hands the answer to the
/// Responder, and the loop finishes the request on its own thread: it
/// records the latency, runs the X-Idempotency-Key dedup and the labeled
/// hook, and writes the response if the client is still connected.
///
/// Plan lifetime: each request's state (the parsed plan the runtime
/// borrows) is owned by its completion callback, then by the finish step it
/// hands to the loop, so it lives exactly as long as the request — a client
/// hanging up cannot free a plan a batch worker is reading, and an answer
/// nobody waits for frees its plan when the loop drops it. Shut the runtime
/// down (running every callback) before destroying the service.
class EstimateService {
 public:
  /// Called (on the event-loop thread) for each completed estimate whose
  /// request carried X-Actual-Cpu-Minutes — also when its client has hung
  /// up; receives ownership of the plan. Wire this to the
  /// continual-retraining pipeline.
  using LabeledObservationFn = std::function<void(
      plan::PlanNodePtr plan, const cost::ServingEstimate& estimate,
      double actual_cpu_minutes)>;

  EstimateService(serve::ShardedServingRuntime* runtime,
                  EstimateServiceConfig config = {});

  /// Registers /estimate, /healthz and /metrics; keeps `server` for stats
  /// scraping (must outlive the service's use).
  void RegisterRoutes(HttpServer* server);

  void SetLabeledObservationHook(LabeledObservationFn hook);

  /// Detaches the labeled-observation hook: estimates finished after this
  /// call are still answered but feed no observation, so the hook's target
  /// (the continual loop) can be torn down next. Call it after
  /// runtime->Shutdown().
  void Shutdown();

  /// HTTP-side end-to-end latency distribution (dispatch -> response built).
  HistogramSnapshot RequestLatencySnapshot() const;

  /// /estimate requests whose state (parsed plan) is still alive: submitted
  /// and not yet finished or dropped by the event loop. Exposed for tests.
  size_t InflightCount() const;

  /// Labeled observations suppressed because their X-Idempotency-Key was
  /// already delivered (exported at /metrics).
  uint64_t DuplicateLabelsSuppressed() const;

 private:
  /// One /estimate request in flight; counts itself in `live`.
  struct Inflight {
    explicit Inflight(std::atomic<size_t>* live) : live(live) {
      live->fetch_add(1, std::memory_order_relaxed);
    }
    ~Inflight() { live->fetch_sub(1, std::memory_order_relaxed); }
    Inflight(const Inflight&) = delete;
    Inflight& operator=(const Inflight&) = delete;

    std::atomic<size_t>* live;
    plan::PlanNodePtr plan;
    std::chrono::steady_clock::time_point dispatched;
    double actual_cpu_minutes = 0.0;
    bool has_actual = false;
    std::string idempotency_key;
  };

  HandlerResult HandleEstimate(const HttpRequest& request,
                               const Responder& responder);
  HttpResponse HandleHealthz(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);

  /// Parses the request body into a plan: plan text by default, SQL when
  /// asked (planned against a catalog synthesized from the statement itself,
  /// so raw SQL needs no pre-registered schema).
  Result<plan::PlanNodePtr> ParseBody(const HttpRequest& request);

  HttpResponse BuildEstimateBody(const cost::ServingEstimate& estimate);
  /// The loop-thread half of a request: latency, dedup, labeled hook, body.
  HttpResponse FinishEstimate(Inflight& state,
                              const cost::ServingEstimate& estimate);

  serve::ShardedServingRuntime* runtime_;
  EstimateServiceConfig config_;
  HttpServer* server_ = nullptr;

  /// Marks `key` delivered; returns false when it already was (the caller
  /// must then suppress the labeled hook). Caller holds mu_.
  bool MarkKeyDeliveredLocked(const std::string& key);

  std::atomic<size_t> inflight_count_{0};
  mutable std::mutex mu_;
  LatencyHistogram request_latency_;
  LabeledObservationFn labeled_hook_;
  // Delivered-label dedup window (guards at-most-once under client retries).
  std::unordered_set<std::string> seen_keys_;
  std::deque<std::string> seen_keys_order_;
  uint64_t duplicate_labels_ = 0;
};

/// Builds a catalog containing every base table referenced by `stmt`
/// (recursing subqueries), each populated with the columns the statement
/// mentions and default statistics. This lets POST /estimate accept raw SQL
/// with no out-of-band schema: the planner only needs names to resolve, and
/// cost estimation degrades gracefully to default stats.
Result<plan::Catalog> SynthesizeCatalog(const sql::SelectStmt& stmt);

}  // namespace prestroid::net

#endif  // PRESTROID_NET_ESTIMATE_SERVICE_H_
