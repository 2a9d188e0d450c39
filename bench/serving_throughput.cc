// serving_throughput — closed-loop load generator for the concurrent batched
// serving runtime (serve/ShardedServingRuntime).
//
// Fits a Prestroid pipeline over a generated Grab-like trace, then drives the
// runtime with multiple producer threads cycling a fixed pool of distinct
// plans (a recurring workload, so the plan-fingerprint cache converges to a
// high hit rate). One one-shard scenario per max-batch in {1, 8, 32, 128},
// then a shard-scaling curve and a tenant-isolation probe,
// all through the same producer loop; each reports QPS, end-to-end latency
// percentiles, cache hit rate, and per-tier counts, and every model-tier
// answer is checked against the single-query PredictPlan reference
// (batched-vs-single parity).
//
// Writes BENCH_serving.json (path = argv[1], default ./BENCH_serving.json)
// via the shared bench JSON writer. PRESTROID_BENCH_SCALE=full scales up the
// request count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "cost/serving_estimator.h"
#include "serve/sharded_runtime.h"
#include "serve/tenant_quota.h"
#include "util/histogram.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace prestroid {
namespace {

constexpr size_t kProducers = 4;
/// Outstanding requests each producer keeps in flight. Large enough that the
/// biggest scenario's batches can actually fill.
constexpr size_t kWindow = 64;
/// Effectively-infinite deadline: the bench measures throughput, not
/// deadline-induced degradation, so queue wait must not trigger skips.
constexpr double kDeadlineMs = 1e9;
/// Parity gate against the single-query reference (DESIGN.md §5.2).
constexpr double kParityTolMinutes = 1e-5;

/// One closed-loop run against a fresh ShardedServingRuntime.
struct Scenario {
  size_t shards = 1;
  size_t max_batch = 32;
  /// Tenant of each global request index.
  std::function<serve::TenantId(size_t)> tenant_of = [](size_t) {
    return serve::TenantId{0};
  };
  std::vector<std::pair<serve::TenantId, serve::TenantQuota>> quotas;
};

struct ProducerOutcome {
  size_t parity_violations = 0;
  double max_abs_err = 0.0;
  /// Terminal drops (shed with nothing outstanding to drain).
  size_t dropped = 0;
  /// (tenant, runtime-measured enqueue->resolve latency ms) per resolved
  /// request, for per-tenant percentile accounting.
  std::vector<std::pair<serve::TenantId, double>> latencies;
};

struct ScenarioResult {
  size_t shards = 0;
  size_t max_batch = 0;
  size_t requests = 0;
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double cache_hit_rate = 0.0;
  cost::ServingStats stats;
  size_t parity_violations = 0;
  double max_abs_err = 0.0;
  std::vector<ProducerOutcome> outcomes;
};

/// One producer's share of the closed loop: claim global request indices,
/// submit, and parity-check resolved answers. Quota/queue sheds drain the
/// oldest outstanding request and retry; a shed with nothing outstanding is
/// a terminal drop (that tenant's quota cannot free itself), counted but not
/// fatal — shedding IS the correct behavior under an over-quota mix.
ProducerOutcome RunProducer(serve::ShardedServingRuntime& runtime,
                            const std::vector<const plan::PlanNode*>& plans,
                            const std::vector<double>& reference,
                            const Scenario& scenario,
                            std::atomic<size_t>& next, size_t total_requests) {
  ProducerOutcome outcome;
  std::deque<std::tuple<size_t, serve::TenantId,
                        std::future<cost::ServingEstimate>>>
      window;
  auto settle_front = [&] {
    auto& [plan_index, tenant, future] = window.front();
    const cost::ServingEstimate estimate = future.get();
    outcome.latencies.emplace_back(tenant, estimate.latency_ms);
    if (estimate.tier == cost::ServingTier::kModel) {
      const double want = reference[plan_index];
      const double err = std::abs(estimate.cpu_minutes - want);
      outcome.max_abs_err = std::max(outcome.max_abs_err, err);
      if (err > kParityTolMinutes) {
        ++outcome.parity_violations;
      }
    }
    window.pop_front();
  };
  for (;;) {
    const size_t i = next.fetch_add(1);
    if (i >= total_requests) break;
    const size_t plan_index = i % plans.size();
    const serve::TenantId tenant = scenario.tenant_of(i);
    for (;;) {
      auto submitted = runtime.Submit(*plans[plan_index], kDeadlineMs, tenant);
      if (submitted.ok()) {
        window.emplace_back(plan_index, tenant, std::move(*submitted));
        break;
      }
      if (submitted.status().code() != StatusCode::kResourceExhausted) {
        std::cerr << "submit failed: " << submitted.status().ToString() << "\n";
        std::abort();
      }
      if (window.empty()) {
        ++outcome.dropped;
        break;
      }
      settle_front();
    }
    while (window.size() >= kWindow) settle_front();
  }
  while (!window.empty()) settle_front();
  return outcome;
}

/// Runs `scenario` with one estimator per shard: shared fallback fits, an
/// independent model instance each (shards never share an estimator or a
/// pipeline).
ScenarioResult RunScenario(const std::vector<workload::QueryRecord>& records,
                           const std::string& artifact_path,
                           const std::vector<const plan::PlanNode*>& plans,
                           const std::vector<double>& reference,
                           const Scenario& scenario, size_t total_requests) {
  std::vector<std::unique_ptr<cost::ServingEstimator>> estimators;
  std::vector<cost::ServingEstimator*> raw;
  for (size_t s = 0; s < scenario.shards; ++s) {
    auto estimator = std::make_unique<cost::ServingEstimator>();
    PRESTROID_CHECK(estimator->FitFallbacks(records).ok());
    auto pipeline = core::PrestroidPipeline::LoadFile(artifact_path);
    PRESTROID_CHECK(pipeline.ok());
    estimator->AttachPipeline(std::move(*pipeline));
    raw.push_back(estimator.get());
    estimators.push_back(std::move(estimator));
  }

  serve::ShardedRuntimeConfig config;
  config.shards = scenario.shards;
  config.shard.max_batch = scenario.max_batch;
  config.shard.queue_depth = std::max<size_t>(256, 4 * scenario.max_batch);
  config.shard.batch_window_us = 100;
  config.shard.cache_entries = 2 * plans.size();
  serve::ShardedServingRuntime runtime(raw, config);
  for (const auto& [tenant, quota] : scenario.quotas) {
    runtime.SetTenantQuota(tenant, quota);
  }
  PRESTROID_CHECK(runtime.Start().ok());

  std::atomic<size_t> next{0};
  std::vector<ProducerOutcome> outcomes(kProducers);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      outcomes[p] = RunProducer(runtime, plans, reference, scenario, next,
                                total_requests);
    });
  }
  for (std::thread& t : producers) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ScenarioResult result;
  result.shards = scenario.shards;
  result.max_batch = scenario.max_batch;
  result.requests = total_requests;
  result.elapsed_s = elapsed_s;
  result.qps = static_cast<double>(total_requests) / elapsed_s;
  const LatencyHistogram latency = runtime.LatencySnapshot();
  result.p50_ms = latency.Percentile(50.0);
  result.p95_ms = latency.Percentile(95.0);
  result.p99_ms = latency.Percentile(99.0);
  result.stats = runtime.StatsSnapshot();
  const size_t lookups = result.stats.cache_hits + result.stats.cache_misses;
  result.cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(result.stats.cache_hits) /
                         static_cast<double>(lookups);
  for (const ProducerOutcome& outcome : outcomes) {
    result.parity_violations += outcome.parity_violations;
    result.max_abs_err = std::max(result.max_abs_err, outcome.max_abs_err);
  }
  result.outcomes = std::move(outcomes);
  runtime.Shutdown();
  return result;
}

/// p95 of one tenant's resolved latencies across all producers.
double TenantP95(const std::vector<ProducerOutcome>& outcomes,
                 serve::TenantId tenant) {
  LatencyHistogram hist;
  for (const ProducerOutcome& outcome : outcomes) {
    for (const auto& [t, latency_ms] : outcome.latencies) {
      if (t == tenant) hist.Record(latency_ms);
    }
  }
  return hist.Percentile(95.0);
}

int Run(const std::string& out_path, size_t max_shards) {
  const bench::BenchScale scale = bench::GetBenchScale();
  bench::BenchDataset data = bench::BuildGrabDataset(scale, 4242);
  const size_t total_requests = scale.full ? 20000 : 1200;

  core::PipelineConfig config;
  config.sampler.node_limit = 15;
  config.num_subtrees = 4;
  config.word2vec.dim = scale.pf_small;
  config.word2vec.min_count = 2;
  config.conv_channels = scale.tpcds_conv;
  config.dense_units = scale.tpcds_dense;
  auto pipeline =
      core::PrestroidPipeline::Fit(data.records, data.splits.train, config);
  PRESTROID_CHECK(pipeline.ok());

  // Every scenario loads one independent model instance per shard from this
  // artifact (fit once, deserialize N times).
  const std::string artifact_path = out_path + ".model.tmp";
  PRESTROID_CHECK((*pipeline)->SaveFile(artifact_path).ok());

  // Recurring workload: a fixed pool of distinct plans, cycled by every
  // producer. The first cycle populates the cache; the steady state is hits.
  // The pool is the trace's LARGEST plans — recurring heavy analytic queries
  // are exactly what the fingerprint cache targets, since featurization cost
  // grows with plan size while the sampled-sub-tree forward pass does not.
  const size_t num_distinct = std::min<size_t>(24, data.records.size());
  std::vector<size_t> by_size(data.records.size());
  for (size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
    return plan::ComputePlanStats(*data.records[a].plan).node_count >
           plan::ComputePlanStats(*data.records[b].plan).node_count;
  });
  std::vector<const plan::PlanNode*> plans;
  std::vector<double> reference;
  plans.reserve(num_distinct);
  reference.reserve(num_distinct);
  for (size_t i = 0; i < num_distinct; ++i) {
    plans.push_back(data.records[by_size[i]].plan.get());
    auto single = (*pipeline)->PredictPlan(*plans.back());
    PRESTROID_CHECK(single.ok());
    reference.push_back(*single);
  }

  const size_t batch_sizes[] = {1, 8, 32, 128};
  std::vector<ScenarioResult> results;
  for (size_t max_batch : batch_sizes) {
    Scenario scenario;
    scenario.max_batch = max_batch;
    results.push_back(RunScenario(data.records, artifact_path, plans,
                                  reference, scenario, total_requests));
    const ScenarioResult& r = results.back();
    std::cout << StrFormat(
        "max-batch %zu: %.0f qps, p50=%.3fms p95=%.3fms p99=%.3fms, "
        "cache-hit=%.1f%%, model=%zu parity-violations=%zu\n",
        r.max_batch, r.qps, r.p50_ms, r.p95_ms, r.p99_ms,
        100.0 * r.cache_hit_rate, r.stats.by_tier[0], r.parity_violations);
  }

  double speedup_32_over_1 = 0.0;
  for (const ScenarioResult& r : results) {
    if (r.max_batch == 32 && results.front().max_batch == 1) {
      speedup_32_over_1 = r.qps / results.front().qps;
    }
  }
  std::cout << StrFormat("qps speedup (max-batch 32 over 1): %.2fx\n",
                         speedup_32_over_1);

  // Phase B: shard-scaling curve. Same closed loop and plan pool against the
  // fingerprint-routed tier at 1/2/4/8 shards (clipped by --shards). On a
  // multi-core runner QPS should rise monotonically 1 -> 4; on a single
  // hardware thread the curve is flat — the JSON records hardware_threads so
  // consumers can tell which regime produced it.
  std::vector<ScenarioResult> scaling;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    if (shards > max_shards) continue;
    Scenario scenario;
    scenario.shards = shards;
    scaling.push_back(RunScenario(data.records, artifact_path, plans,
                                  reference, scenario, total_requests));
    const ScenarioResult& r = scaling.back();
    std::cout << StrFormat(
        "shards %zu: %.0f qps, p50=%.3fms p95=%.3fms p99=%.3fms, "
        "cache-hit=%.1f%%, parity-violations=%zu\n",
        r.shards, r.qps, r.p50_ms, r.p95_ms, r.p99_ms,
        100.0 * r.cache_hit_rate, r.parity_violations);
  }

  // Phase C: tenant isolation. A skewed mix — 70% of requests from one
  // heavy tenant throttled to a small in-flight quota, 30% from a light
  // tenant — versus the light tenant running the same request share alone.
  // The quota should confine the damage: the light tenant's p95 in the mixed
  // run stays within ~2x its isolated baseline while the heavy tenant sheds.
  const size_t isolation_shards = std::min<size_t>(2, max_shards);
  constexpr serve::TenantId kHeavy = 1;
  constexpr serve::TenantId kLight = 2;
  const size_t light_requests = total_requests * 3 / 10;
  Scenario light_only;
  light_only.shards = isolation_shards;
  light_only.tenant_of = [](size_t) { return kLight; };
  const ScenarioResult isolated =
      RunScenario(data.records, artifact_path, plans, reference, light_only,
                  light_requests);
  Scenario skewed;
  skewed.shards = isolation_shards;
  skewed.tenant_of = [](size_t i) { return i % 10 < 7 ? kHeavy : kLight; };
  skewed.quotas = {{kHeavy, serve::TenantQuota{/*max_in_flight=*/8,
                                               /*max_scratch_bytes=*/0}}};
  const ScenarioResult mixed =
      RunScenario(data.records, artifact_path, plans, reference, skewed,
                  total_requests);
  const double isolated_p95 = TenantP95(isolated.outcomes, kLight);
  const double mixed_light_p95 = TenantP95(mixed.outcomes, kLight);
  const double p95_ratio =
      isolated_p95 > 0.0 ? mixed_light_p95 / isolated_p95 : 0.0;
  size_t heavy_drops = 0;
  for (const ProducerOutcome& outcome : mixed.outcomes) {
    heavy_drops += outcome.dropped;
  }
  std::cout << StrFormat(
      "tenant isolation (%zu shards): light p95 %.3fms isolated vs %.3fms "
      "mixed (%.2fx), heavy quota-sheds=%zu terminal-drops=%zu\n",
      isolation_shards, isolated_p95, mixed_light_p95, p95_ratio,
      mixed.stats.quota_sheds, heavy_drops);
  std::remove(artifact_path.c_str());

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("generated_by", "bench/serving_throughput");
  json.Provenance();
  json.Field("scale", scale.full ? "full" : "small");
  json.Field("producers", kProducers);
  json.Field("producer_window", kWindow);
  json.Field("distinct_plans", num_distinct);
  json.Field("requests_per_scenario", total_requests);
  json.Key("scenarios");
  json.BeginArray();
  for (const ScenarioResult& r : results) {
    json.BeginObject();
    json.Field("max_batch", r.max_batch);
    json.FieldDouble("elapsed_s", r.elapsed_s);
    json.FieldDouble("qps", r.qps, "%.1f");
    json.FieldDouble("p50_ms", r.p50_ms);
    json.FieldDouble("p95_ms", r.p95_ms);
    json.FieldDouble("p99_ms", r.p99_ms);
    json.FieldDouble("cache_hit_rate", r.cache_hit_rate);
    json.Field("cache_hits", r.stats.cache_hits);
    json.Field("cache_misses", r.stats.cache_misses);
    json.Field("cache_evictions", r.stats.cache_evictions);
    json.Field("rejected_requests", r.stats.rejected_requests);
    json.Field("queue_high_watermark", r.stats.queue_high_watermark);
    json.Key("tiers");
    json.BeginObject();
    json.Field("model", r.stats.by_tier[0]);
    json.Field("log_binning", r.stats.by_tier[1]);
    json.Field("global_mean", r.stats.by_tier[2]);
    json.EndObject();
    json.Field("parity_violations", r.parity_violations);
    json.FieldDouble("max_abs_err_minutes", r.max_abs_err, "%.8f");
    json.EndObject();
  }
  json.EndArray();

  json.Key("shard_scaling");
  json.BeginArray();
  for (const ScenarioResult& r : scaling) {
    json.BeginObject();
    json.Field("shards", r.shards);
    json.Field("requests", r.requests);
    json.FieldDouble("elapsed_s", r.elapsed_s);
    json.FieldDouble("qps", r.qps, "%.1f");
    json.FieldDouble("p50_ms", r.p50_ms);
    json.FieldDouble("p95_ms", r.p95_ms);
    json.FieldDouble("p99_ms", r.p99_ms);
    json.FieldDouble("cache_hit_rate", r.cache_hit_rate);
    json.Field("cache_hits", r.stats.cache_hits);
    json.Field("cache_misses", r.stats.cache_misses);
    json.Field("quota_sheds", r.stats.quota_sheds);
    json.Field("parity_violations", r.parity_violations);
    json.FieldDouble("max_abs_err_minutes", r.max_abs_err, "%.8f");
    json.EndObject();
  }
  json.EndArray();

  json.Key("tenant_isolation");
  json.BeginObject();
  json.Field("shards", isolation_shards);
  json.Field("heavy_share_pct", size_t{70});
  json.Field("heavy_max_in_flight", size_t{8});
  json.FieldDouble("isolated_light_p95_ms", isolated_p95);
  json.FieldDouble("mixed_light_p95_ms", mixed_light_p95);
  json.FieldDouble("light_p95_ratio", p95_ratio);
  json.Field("heavy_quota_sheds", mixed.stats.quota_sheds);
  json.Field("heavy_terminal_drops", heavy_drops);
  json.Field("parity_violations",
             isolated.parity_violations + mixed.parity_violations);
  json.EndObject();

  json.Key("summary");
  json.BeginObject();
  json.FieldDouble("qps_speedup_batch32_over_1", speedup_32_over_1);
  if (!scaling.empty()) {
    json.FieldDouble("qps_speedup_max_shards_over_1",
                     scaling.back().qps / scaling.front().qps);
  }
  json.EndObject();
  json.EndObject();
  std::cout << "wrote " << out_path << "\n";

  size_t total_violations = 0;
  for (const ScenarioResult& r : results) total_violations += r.parity_violations;
  for (const ScenarioResult& r : scaling) {
    total_violations += r.parity_violations;
  }
  total_violations += isolated.parity_violations + mixed.parity_violations;
  return total_violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace prestroid

int main(int argc, char** argv) {
  // Usage: serving_throughput [OUT.json] [--shards N]
  // --shards clips the scaling curve's shard counts (default up to 8).
  std::string out_path = "BENCH_serving.json";
  size_t max_shards = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed >= 1) max_shards = static_cast<size_t>(parsed);
    } else {
      out_path = arg;
    }
  }
  return prestroid::Run(out_path, max_shards);
}
