/// Tests for the concurrent batched serving runtime (serve/), driven through
/// a one-shard ShardedServingRuntime:
///   - plan fingerprints cover exactly the recast-consumed fields;
///   - the LRU feature cache counts hits/misses/evictions and retires
///     generations on invalidation;
///   - batched serving matches single-query serving to 1e-5 at max_batch
///     1, 8, 32 and 128, each forming full batches of that size;
///   - deadline expiry while queued degrades per item instead of failing;
///   - queue overflow rejects with kResourceExhausted without blocking;
///   - multi-producer submission is safe (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "cost/serving_estimator.h"
#include "plan/plan_node.h"
#include "serve/plan_cache.h"
#include "serve/plan_fingerprint.h"
#include "serve/sharded_runtime.h"
#include "sql/ast.h"
#include "workload/dataset.h"

namespace prestroid::serve {
namespace {

// --------------------------------------------------------------------------
// Plan fingerprints
// --------------------------------------------------------------------------

plan::PlanNodePtr ScanFilterPlan(const std::string& table, double threshold) {
  return plan::MakeFilter(
      sql::MakeCompare(">", sql::MakeColumn(table, "v"),
                       sql::MakeNumber(threshold)),
      plan::MakeTableScan(table));
}

TEST(PlanFingerprintTest, IdenticalPlansShareAFingerprint) {
  plan::PlanNodePtr a = ScanFilterPlan("orders", 10.0);
  plan::PlanNodePtr b = ScanFilterPlan("orders", 10.0);
  EXPECT_EQ(FingerprintPlan(*a), FingerprintPlan(*b));
}

TEST(PlanFingerprintTest, RecastVisibleFieldsChangeTheFingerprint) {
  plan::PlanNodePtr base = ScanFilterPlan("orders", 10.0);
  // Different scan table.
  plan::PlanNodePtr other_table = ScanFilterPlan("lineitem", 10.0);
  EXPECT_NE(FingerprintPlan(*base), FingerprintPlan(*other_table));
  // Different predicate literal.
  plan::PlanNodePtr other_literal = ScanFilterPlan("orders", 11.0);
  EXPECT_NE(FingerprintPlan(*base), FingerprintPlan(*other_literal));
  // Different join flavour over the same inputs.
  plan::PlanNodePtr inner = plan::MakeJoin(
      sql::JoinType::kInner, nullptr, plan::MakeTableScan("a"),
      plan::MakeTableScan("b"));
  plan::PlanNodePtr left = plan::MakeJoin(
      sql::JoinType::kLeft, nullptr, plan::MakeTableScan("a"),
      plan::MakeTableScan("b"));
  EXPECT_NE(FingerprintPlan(*inner), FingerprintPlan(*left));
}

TEST(PlanFingerprintTest, RecastDroppedFieldsDoNotChangeTheFingerprint) {
  // Featurization can never observe limit values or cardinality annotations
  // (the recast drops them), so plans differing only there share an entry.
  plan::PlanNodePtr a = plan::MakeLimit(10, plan::MakeTableScan("orders"));
  plan::PlanNodePtr b = plan::MakeLimit(99, plan::MakeTableScan("orders"));
  b->cardinality = 1234.0;
  EXPECT_EQ(FingerprintPlan(*a), FingerprintPlan(*b));
}

TEST(PlanFingerprintTest, TreeShapeIsPartOfTheFingerprint) {
  // join(a, join(b, c)) vs join(join(a, b), c): same node multiset, nested
  // differently.
  plan::PlanNodePtr right_deep = plan::MakeJoin(
      sql::JoinType::kInner, nullptr, plan::MakeTableScan("a"),
      plan::MakeJoin(sql::JoinType::kInner, nullptr, plan::MakeTableScan("b"),
                     plan::MakeTableScan("c")));
  plan::PlanNodePtr left_deep = plan::MakeJoin(
      sql::JoinType::kInner, nullptr,
      plan::MakeJoin(sql::JoinType::kInner, nullptr, plan::MakeTableScan("a"),
                     plan::MakeTableScan("b")),
      plan::MakeTableScan("c"));
  EXPECT_NE(FingerprintPlan(*right_deep), FingerprintPlan(*left_deep));
}

TEST(PlanFingerprintTest, GenerationMixChangesTheCacheKey) {
  plan::PlanNodePtr p = ScanFilterPlan("orders", 10.0);
  const uint64_t fp = FingerprintPlan(*p);
  EXPECT_NE(CombineFingerprint(fp, 0), CombineFingerprint(fp, 1));
  EXPECT_EQ(CombineFingerprint(fp, 3), CombineFingerprint(fp, 3));
}

// --------------------------------------------------------------------------
// Plan-feature LRU cache
// --------------------------------------------------------------------------

std::shared_ptr<const core::PlanFeatures> DummyFeatures() {
  return std::make_shared<core::PlanFeatures>();
}

TEST(PlanFeatureCacheTest, CountsHitsAndMisses) {
  PlanFeatureCache cache(4);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  cache.Insert(1, DummyFeatures());
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(PlanFeatureCacheTest, EvictsLeastRecentlyUsed) {
  PlanFeatureCache cache(2);
  cache.Insert(1, DummyFeatures());
  cache.Insert(2, DummyFeatures());
  ASSERT_NE(cache.Lookup(1), nullptr);  // 1 is now most recent
  cache.Insert(3, DummyFeatures());     // evicts 2
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanFeatureCacheTest, ZeroCapacityDisablesCaching) {
  PlanFeatureCache cache(0);
  cache.Insert(1, DummyFeatures());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

TEST(PlanFeatureCacheTest, ClearDropsEntriesButKeepsCounters) {
  PlanFeatureCache cache(4);
  cache.Insert(1, DummyFeatures());
  ASSERT_NE(cache.Lookup(1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanFeatureCacheTest, EntriesSurviveEvictionWhileHeld) {
  PlanFeatureCache cache(1);
  cache.Insert(1, DummyFeatures());
  std::shared_ptr<const core::PlanFeatures> held = cache.Lookup(1);
  ASSERT_NE(held, nullptr);
  cache.Insert(2, DummyFeatures());  // evicts 1 while `held` is in flight
  EXPECT_NE(held, nullptr);
  EXPECT_EQ(held.use_count(), 1);
}

// --------------------------------------------------------------------------
// Serving runtime (fixture with a fitted pipeline, mirroring serving_test)
// --------------------------------------------------------------------------

class ServingRuntimeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 25;
    schema_config.num_days = 20;
    schema_config.seed = 11;
    workload::GeneratedSchema schema = GenerateSchema(schema_config);
    workload::TraceConfig trace_config;
    trace_config.num_queries = 60;
    trace_config.num_days = 20;
    trace_config.seed = 12;
    records_ = new std::vector<workload::QueryRecord>(
        GenerateGrabTrace(schema, trace_config).ValueOrDie());

    core::PipelineConfig config;
    config.word2vec.dim = 16;
    config.word2vec.min_count = 2;
    config.word2vec.epochs = 2;
    config.sampler.node_limit = 16;
    config.sampler.conv_layers = 3;
    config.num_subtrees = 3;
    config.use_subtrees = true;
    config.conv_channels = {8, 8, 8};
    config.dense_units = {8};
    std::vector<size_t> train_indices(records_->size());
    for (size_t i = 0; i < train_indices.size(); ++i) train_indices[i] = i;
    auto pipeline =
        core::PrestroidPipeline::Fit(*records_, train_indices, config)
            .ValueOrDie();
    artifact_path_ =
        new std::string(::testing::TempDir() + "/serving_runtime_model.bin");
    ASSERT_TRUE(pipeline->SaveFile(*artifact_path_).ok());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete artifact_path_;
  }

  /// A fully armed estimator: fitted fallbacks plus the model tier.
  static std::unique_ptr<cost::ServingEstimator> MakeEstimator() {
    auto estimator = std::make_unique<cost::ServingEstimator>();
    EXPECT_TRUE(estimator->FitFallbacks(*records_).ok());
    estimator->AttachPipeline(
        core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie());
    return estimator;
  }

  static const plan::PlanNode& SamplePlan(size_t i) {
    return *(*records_)[i % records_->size()].plan;
  }

  static std::vector<workload::QueryRecord>* records_;
  static std::string* artifact_path_;
};

std::vector<workload::QueryRecord>* ServingRuntimeFixture::records_ = nullptr;
std::string* ServingRuntimeFixture::artifact_path_ = nullptr;

ShardedRuntimeConfig OneShard(ServingRuntimeConfig shard) {
  ShardedRuntimeConfig config;
  config.shard = shard;
  return config;
}

/// Submits one plan and waits for its answer.
cost::ServingEstimate EstimateNow(ShardedServingRuntime& runtime,
                                  const plan::PlanNode& plan) {
  return runtime.Submit(plan, /*deadline_ms=*/1e9).ValueOrDie().get();
}

/// Swaps `pipeline` into a one-shard runtime and returns the previous one.
Result<std::unique_ptr<core::PrestroidPipeline>> SwapOne(
    ShardedServingRuntime& runtime,
    std::unique_ptr<core::PrestroidPipeline> pipeline,
    bool is_rollback = false) {
  std::vector<std::unique_ptr<core::PrestroidPipeline>> pipelines;
  pipelines.push_back(std::move(pipeline));
  auto swapped = runtime.SwapPipelines(std::move(pipelines), is_rollback);
  if (!swapped.ok()) return swapped.status();
  return std::move((*swapped)[0]);
}

TEST_F(ServingRuntimeFixture, BatchedMatchesSingleQueryServing) {
  // Single-query references through an independent instance of the same
  // artifact (the runtime owns each estimator while running).
  auto reference_pipeline =
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  std::vector<double> reference;
  for (size_t i = 0; i < records_->size(); ++i) {
    reference.push_back(reference_pipeline->PredictPlan(SamplePlan(i))
                            .ValueOrDie());
  }

  // The window is far longer than serving any batch takes, and the worker
  // leaves it early only once max_batch requests are queued. Every round is
  // a whole number of full batches, so answering them well inside the window
  // shows that each batch formed at exactly max_batch.
  constexpr size_t kWindowUs = 20000000;
  constexpr size_t kMinRequests = 24;
  for (size_t max_batch : {size_t{1}, size_t{8}, size_t{32}, size_t{128}}) {
    SCOPED_TRACE("max_batch " + std::to_string(max_batch));
    const size_t requests =
        (kMinRequests + max_batch - 1) / max_batch * max_batch;
    auto estimator = MakeEstimator();
    ServingRuntimeConfig config;
    config.max_batch = max_batch;
    config.batch_window_us = kWindowUs;
    ShardedServingRuntime runtime({estimator.get()}, OneShard(config));
    ASSERT_TRUE(runtime.Start().ok());

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::future<cost::ServingEstimate>> futures;
    for (size_t i = 0; i < requests; ++i) {
      auto submitted = runtime.Submit(SamplePlan(i), /*deadline_ms=*/1e9);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(*submitted));
    }
    for (size_t i = 0; i < requests; ++i) {
      const cost::ServingEstimate estimate = futures[i].get();
      ASSERT_EQ(estimate.tier, cost::ServingTier::kModel)
          << estimate.degradation_reason.ToString();
      EXPECT_NEAR(estimate.cpu_minutes, reference[i % reference.size()],
                  1e-5);
      EXPECT_TRUE(estimate.degradation_reason.ok());
      EXPECT_GE(estimate.latency_ms, 0.0);
    }
    const double elapsed_us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    EXPECT_LT(elapsed_us, kWindowUs / 2.0);
    runtime.Shutdown();
    const cost::ServingStats stats = runtime.StatsSnapshot();
    EXPECT_EQ(stats.requests, requests);
    EXPECT_EQ(stats.by_tier[0], requests);
    EXPECT_GE(stats.queue_high_watermark, max_batch);
    EXPECT_EQ(runtime.LatencySnapshot().count(), requests);
  }
}

TEST_F(ServingRuntimeFixture, DeadlineExpiredWhileQueuedDegradesPerItem) {
  auto estimator = MakeEstimator();
  ServingRuntimeConfig config;
  config.max_batch = 4;
  ShardedServingRuntime runtime({estimator.get()}, OneShard(config));

  // Enqueue before Start so the deadline deterministically expires while the
  // request is still queued.
  auto expired = runtime.Submit(SamplePlan(0), /*deadline_ms=*/1e-6);
  ASSERT_TRUE(expired.ok());
  auto healthy = runtime.Submit(SamplePlan(1), /*deadline_ms=*/1e9);
  ASSERT_TRUE(healthy.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(runtime.Start().ok());

  const cost::ServingEstimate degraded = expired->get();
  EXPECT_NE(degraded.tier, cost::ServingTier::kModel);
  EXPECT_EQ(degraded.degradation_reason.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(std::isfinite(degraded.cpu_minutes));

  const cost::ServingEstimate served = healthy->get();
  EXPECT_EQ(served.tier, cost::ServingTier::kModel);

  runtime.Shutdown();
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_GE(stats.deadline_skips, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST_F(ServingRuntimeFixture, QueueOverflowRejectsWithoutBlocking) {
  // No Start(): nothing drains, so the overflow point is deterministic.
  cost::ServingEstimator estimator;  // fallbacks only — plenty for a drain
  ServingRuntimeConfig config;
  config.queue_depth = 4;
  config.max_batch = 2;
  ShardedServingRuntime runtime({&estimator}, OneShard(config));

  std::vector<std::future<cost::ServingEstimate>> accepted;
  for (size_t i = 0; i < config.queue_depth; ++i) {
    auto submitted = runtime.Submit(SamplePlan(i));
    ASSERT_TRUE(submitted.ok());
    accepted.push_back(std::move(*submitted));
  }
  auto overflow = runtime.Submit(SamplePlan(4));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);

  cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.rejected_requests, 1u);
  EXPECT_EQ(stats.queue_high_watermark, config.queue_depth);

  // Shutdown without Start drains inline: every accepted future resolves.
  runtime.Shutdown();
  for (auto& future : accepted) {
    EXPECT_TRUE(std::isfinite(future.get().cpu_minutes));
  }
  // And the runtime no longer admits work.
  auto after = runtime.Submit(SamplePlan(0));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServingRuntimeFixture, RestartResetsTheQueueHighWatermark) {
  cost::ServingEstimator estimator;  // fallbacks only — plenty for a drain
  ServingRuntimeConfig config;
  config.queue_depth = 4;
  config.max_batch = 2;
  ShardedServingRuntime runtime({&estimator}, OneShard(config));

  // First run: fill the queue before Start so the watermark deterministically
  // reaches the full depth.
  std::vector<std::future<cost::ServingEstimate>> first_run;
  for (size_t i = 0; i < config.queue_depth; ++i) {
    first_run.push_back(runtime.Submit(SamplePlan(i)).ValueOrDie());
  }
  EXPECT_EQ(runtime.StatsSnapshot().queue_high_watermark, config.queue_depth);
  runtime.Shutdown();
  for (auto& future : first_run) future.get();

  // Second run: the watermark reports THIS run's peak, not the first run's.
  ASSERT_TRUE(runtime.Start().ok());
  auto one = runtime.Submit(SamplePlan(0), 1e9);
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE(std::isfinite(one->get().cpu_minutes));
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_LE(stats.queue_high_watermark, 1u);
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, CacheReusesFeaturesUntilInvalidated) {
  auto estimator = MakeEstimator();
  ServingRuntimeConfig config;
  config.max_batch = 4;
  ShardedServingRuntime runtime({estimator.get()}, OneShard(config));
  ASSERT_TRUE(runtime.Start().ok());

  const cost::ServingEstimate first = EstimateNow(runtime, SamplePlan(0));
  const cost::ServingEstimate second = EstimateNow(runtime, SamplePlan(0));
  ASSERT_EQ(first.tier, cost::ServingTier::kModel);
  ASSERT_EQ(second.tier, cost::ServingTier::kModel);
  // Identical plan, identical features: bitwise-equal model answers.
  EXPECT_EQ(first.cpu_minutes, second.cpu_minutes);
  cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // Catalog churn / artifact swap: invalidation retires the cached encoding,
  // so the same plan featurizes again under the new generation.
  runtime.InvalidateCache();
  const cost::ServingEstimate third = EstimateNow(runtime, SamplePlan(0));
  ASSERT_EQ(third.tier, cost::ServingTier::kModel);
  EXPECT_EQ(third.cpu_minutes, first.cpu_minutes);  // same pipeline, same answer
  stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, BatchOfOneUsesTheCacheAndKeepsParity) {
  // max_batch = 1 has no path of its own: a batch of one is featurized once,
  // cached, and run through the same fused forward as any other batch.
  auto estimator = MakeEstimator();
  const double reference = core::PrestroidPipeline::LoadFile(*artifact_path_)
                               .ValueOrDie()
                               ->PredictPlan(SamplePlan(0))
                               .ValueOrDie();
  ServingRuntimeConfig config;
  config.max_batch = 1;
  ShardedServingRuntime runtime({estimator.get()}, OneShard(config));
  ASSERT_TRUE(runtime.Start().ok());
  constexpr size_t kRepeats = 3;
  for (size_t i = 0; i < kRepeats; ++i) {
    const cost::ServingEstimate estimate = EstimateNow(runtime, SamplePlan(0));
    ASSERT_EQ(estimate.tier, cost::ServingTier::kModel)
        << estimate.degradation_reason.ToString();
    EXPECT_NEAR(estimate.cpu_minutes, reference, 1e-5);
  }
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, kRepeats - 1);
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, SwapPipelineIsAtomicAndBumpsTheCacheGeneration) {
  auto estimator = MakeEstimator();
  ServingRuntimeConfig config;
  config.max_batch = 4;
  ShardedServingRuntime runtime({estimator.get()}, OneShard(config));
  ASSERT_TRUE(runtime.Start().ok());

  const cost::ServingEstimate before = EstimateNow(runtime, SamplePlan(0));
  ASSERT_EQ(before.tier, cost::ServingTier::kModel);
  cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.model_swaps, 0u);

  // Swap in a fresh instance of the same artifact: the previous pipeline
  // comes back for rollback retention, and the cached featurization is
  // retired (generation bump), so the plan featurizes again under the new
  // model — with a bit-identical answer, since the weights are identical.
  auto replacement =
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  auto previous = SwapOne(runtime, std::move(replacement));
  ASSERT_TRUE(previous.ok()) << previous.status().ToString();
  EXPECT_NE(*previous, nullptr);

  const cost::ServingEstimate after = EstimateNow(runtime, SamplePlan(0));
  ASSERT_EQ(after.tier, cost::ServingTier::kModel);
  EXPECT_EQ(after.cpu_minutes, before.cpu_minutes);
  stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 2u);  // old generation's entry is unreachable
  EXPECT_EQ(stats.model_swaps, 1u);
  EXPECT_EQ(stats.model_rollbacks, 0u);

  // Rolling the retained pipeline back counts on the rollback counter.
  auto rolled =
      SwapOne(runtime, std::move(*previous), /*is_rollback=*/true);
  ASSERT_TRUE(rolled.ok());
  stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.model_swaps, 1u);
  EXPECT_EQ(stats.model_rollbacks, 1u);

  // Detaching (nullptr) degrades to the fallback chain instead of failing.
  auto detached = SwapOne(runtime, nullptr);
  ASSERT_TRUE(detached.ok());
  const cost::ServingEstimate degraded = EstimateNow(runtime, SamplePlan(0));
  EXPECT_NE(degraded.tier, cost::ServingTier::kModel);
  EXPECT_TRUE(std::isfinite(degraded.cpu_minutes));
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, HotSwapUnderConcurrentLoadKeepsParity) {
  // Chaos criterion (a): >= 10 consecutive hot-swaps while multiple
  // producers hammer the queue — zero failed requests, zero parity
  // violations (every answer matches the single-query reference), all
  // requests on the model tier throughout. Runs under TSan in CI.
  auto estimator = MakeEstimator();
  auto reference_pipeline =
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 64;
  constexpr size_t kDistinctPlans = 16;
  std::vector<double> reference;
  for (size_t i = 0; i < kDistinctPlans; ++i) {
    reference.push_back(
        reference_pipeline->PredictPlan(SamplePlan(i)).ValueOrDie());
  }

  ServingRuntimeConfig config;
  config.queue_depth = 16;
  config.max_batch = 4;
  config.batch_window_us = 50;
  config.cache_entries = 8;
  ShardedServingRuntime runtime({estimator.get()}, OneShard(config));
  ASSERT_TRUE(runtime.Start().ok());

  std::atomic<size_t> served{0};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> parity_violations{0};
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      std::deque<std::pair<size_t, std::future<cost::ServingEstimate>>> window;
      auto settle = [&](size_t plan_index,
                        std::future<cost::ServingEstimate> f) {
        const cost::ServingEstimate estimate = f.get();
        if (estimate.tier != cost::ServingTier::kModel) ++failed;
        if (!(std::fabs(estimate.cpu_minutes - reference[plan_index]) <=
              1e-5)) {
          ++parity_violations;
        }
        ++served;
      };
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t plan_index = (t * kPerThread + i) % kDistinctPlans;
        for (;;) {
          auto submitted =
              runtime.Submit(SamplePlan(plan_index), /*deadline_ms=*/1e9);
          if (submitted.ok()) {
            window.emplace_back(plan_index, std::move(*submitted));
            break;
          }
          if (window.empty()) {
            std::this_thread::yield();
            continue;
          }
          settle(window.front().first, std::move(window.front().second));
          window.pop_front();
        }
      }
      while (!window.empty()) {
        settle(window.front().first, std::move(window.front().second));
        window.pop_front();
      }
    });
  }

  // The swapper: >= 10 promotions/rollbacks racing the producers, every one
  // an instance of the same artifact so parity is checkable throughout.
  constexpr size_t kSwaps = 12;
  std::atomic<size_t> swap_failures{0};
  std::thread swapper([&] {
    auto next = core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
    for (size_t s = 0; s < kSwaps; ++s) {
      auto swapped =
          SwapOne(runtime, std::move(next), /*is_rollback=*/s % 2 == 1);
      if (!swapped.ok() || *swapped == nullptr) {
        ++swap_failures;
        next = core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
      } else {
        next = std::move(*swapped);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& t : producers) t.join();
  swapper.join();
  runtime.Shutdown();

  EXPECT_EQ(served.load(), kThreads * kPerThread);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(parity_violations.load(), 0u);
  EXPECT_EQ(swap_failures.load(), 0u);
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.model_swaps + stats.model_rollbacks, kSwaps);
  EXPECT_EQ(stats.model_swaps, kSwaps / 2);
  EXPECT_EQ(stats.model_rollbacks, kSwaps / 2);
  EXPECT_EQ(runtime.LatencySnapshot().count(), kThreads * kPerThread);
}

TEST_F(ServingRuntimeFixture, MultiProducerStressIsSafe) {
  auto estimator = MakeEstimator();
  ServingRuntimeConfig config;
  config.queue_depth = 16;  // small: exercises overflow + backpressure
  config.max_batch = 4;
  config.batch_window_us = 50;
  config.cache_entries = 8;  // smaller than the plan pool: exercises eviction
  ShardedServingRuntime runtime({estimator.get()}, OneShard(config));
  ASSERT_TRUE(runtime.Start().ok());

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 64;
  std::atomic<size_t> served{0};
  std::atomic<size_t> non_finite{0};
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      std::deque<std::future<cost::ServingEstimate>> window;
      auto settle = [&](std::future<cost::ServingEstimate> f) {
        if (!std::isfinite(f.get().cpu_minutes)) ++non_finite;
        ++served;
      };
      for (size_t i = 0; i < kPerThread; ++i) {
        for (;;) {
          auto submitted =
              runtime.Submit(SamplePlan(t * kPerThread + i), /*deadline_ms=*/1e9);
          if (submitted.ok()) {
            window.push_back(std::move(*submitted));
            break;
          }
          ASSERT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
          if (window.empty()) {
            // The queue is full of OTHER producers' requests; let the worker
            // drain before retrying.
            std::this_thread::yield();
            continue;
          }
          settle(std::move(window.front()));
          window.pop_front();
        }
      }
      while (!window.empty()) {
        settle(std::move(window.front()));
        window.pop_front();
      }
    });
  }
  // Concurrent snapshot reader + one mid-flight invalidation.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    bool invalidated = false;
    while (!done.load()) {
      const cost::ServingStats stats = runtime.StatsSnapshot();
      (void)runtime.LatencySnapshot();
      if (!invalidated && stats.requests > kThreads * kPerThread / 2) {
        runtime.InvalidateCache();
        invalidated = true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& t : producers) t.join();
  done = true;
  reader.join();
  runtime.Shutdown();

  EXPECT_EQ(served.load(), kThreads * kPerThread);
  EXPECT_EQ(non_finite.load(), 0u);
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_LE(stats.queue_high_watermark, config.queue_depth);
  EXPECT_EQ(runtime.LatencySnapshot().count(), kThreads * kPerThread);
}

}  // namespace
}  // namespace prestroid::serve
