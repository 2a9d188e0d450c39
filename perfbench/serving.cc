// The `recurring` and `churn` workloads: open-loop POST /estimate load
// against the real serving stack (HttpServer -> EstimateService ->
// ShardedServingRuntime with 2 shards -> featurization -> forward), with
// every answer checked against a PredictPlan reference computed beforehand
// in a helper process.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "cost/serving_estimator.h"
#include "inputs.h"
#include "loadgen.h"
#include "net/estimate_service.h"
#include "net/http.h"
#include "net/http_server.h"
#include "plan/plan_limits.h"
#include "plan/plan_stats.h"
#include "plan/plan_text.h"
#include "plan/planner.h"
#include "serve/plan_fingerprint.h"
#include "serve/sharded_runtime.h"
#include "speed.h"
#include "sql/parser.h"
#include "util/string_util.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {

namespace pc = prestroid::core;
namespace pn = prestroid::net;
namespace pp = prestroid::plan;
namespace ps = prestroid::serve;
using prestroid::Result;
using prestroid::Status;
using prestroid::StrFormat;

namespace {

constexpr size_t kShards = 2;
constexpr size_t kConnections = 4;
constexpr size_t kCacheEntriesPerShard = 256;
/// A phase whose generator ran later than this share of the latency limit
/// (p99 send lag) measured the box, not the program. It is run again, after
/// a pause, up to kMaxAttempts times in all; if the last attempt is still
/// late the whole run is invalid.
constexpr double kMaxLagShareOfLimit = 0.25;
constexpr int kMaxAttempts = 3;
constexpr double kRetryPauseS = 0.5;
/// Trace ingests timed for workload.ingest_s in the traced run.
constexpr size_t kIngestRepeats = 5;
/// The latency limit the generator's self-check is stated against.
constexpr double kLimitMs = 50.0;

/// The nominal-rate phase: its share of the run, its segment count, and the
/// segments latency is pooled from (those with the least steal).
constexpr double kNominalShare = 0.45;
constexpr size_t kSegments = 16;
constexpr size_t kKeptSegments = 4;
/// The saturation phase: its share of the run, its segment count, and the
/// requests kept outstanding on each connection (enough to keep both
/// shards' batch workers busy, far below their queue depth).
constexpr double kSaturationShare = 0.45;
constexpr size_t kSaturationSegments = 8;
constexpr size_t kWindowPerConnection = 4;

/// Per-workload traffic shape. Rates are requests per second.
struct Shape {
  bool sql = false;
  size_t pool = 0;
  /// The offered rate latency is reported at.
  double nominal_rate = 0.0;
};

Shape ShapeOf(bool churn) {
  Shape shape;
  if (churn) {
    // Four times the tier's cache (2 shards x 256): cycling it never hits.
    shape.sql = true;
    shape.pool = 2048;
    shape.nominal_rate = 300;
  } else {
    // Far smaller than the cache: after the first pass every lookup hits.
    shape.pool = 32;
    shape.nominal_rate = 300;
  }
  return shape;
}

/// The full in-process serving stack on an ephemeral loopback port.
class Stack {
 public:
  Stack() = default;
  ~Stack() { Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Status Start(const std::string& model_path,
               const std::vector<prestroid::workload::QueryRecord>& records,
               SetupTimes* times) {
    const Clock::time_point begin = Clock::now();
    std::vector<prestroid::cost::ServingEstimator*> raw;
    for (size_t s = 0; s < kShards; ++s) {
      auto estimator = std::make_unique<prestroid::cost::ServingEstimator>();
      Clock::time_point t = Clock::now();
      PRESTROID_ASSIGN_OR_RETURN(std::unique_ptr<pc::PrestroidPipeline> model,
                                 pc::PrestroidPipeline::LoadFile(model_path));
      times->load_s += SecondsSince(t);
      t = Clock::now();
      PRESTROID_RETURN_NOT_OK(estimator->FitFallbacks(records));
      times->fallback_s += SecondsSince(t);
      estimator->AttachPipeline(std::move(model));
      raw.push_back(estimator.get());
      estimators_.push_back(std::move(estimator));
    }
    ps::ShardedRuntimeConfig config;
    config.shards = kShards;
    config.shard.cache_entries = kCacheEntriesPerShard;
    runtime_ = std::make_unique<ps::ShardedServingRuntime>(raw, config);
    PRESTROID_RETURN_NOT_OK(runtime_->Start());
    pn::HttpServerConfig server_config;
    server_config.port = 0;
    server_ = std::make_unique<pn::HttpServer>(server_config);
    PRESTROID_RETURN_NOT_OK(server_->Start());
    service_ = std::make_unique<pn::EstimateService>(runtime_.get());
    service_->RegisterRoutes(server_.get());
    loop_ = std::thread([this]() { loop_status_ = server_->Run(); });
    times->total_s = SecondsSince(begin);
    return Status::OK();
  }

  void Stop() {
    if (loop_.joinable()) {
      server_->RequestDrain();
      loop_.join();
    }
    if (runtime_ != nullptr) runtime_->Shutdown();
    if (service_ != nullptr) service_->Shutdown();
  }

  uint16_t port() const { return server_->port(); }
  ps::ShardedServingRuntime& runtime() { return *runtime_; }
  const Status& loop_status() const { return loop_status_; }

 private:
  std::vector<std::unique_ptr<prestroid::cost::ServingEstimator>> estimators_;
  std::unique_ptr<ps::ShardedServingRuntime> runtime_;
  std::unique_ptr<pn::HttpServer> server_;
  std::unique_ptr<pn::EstimateService> service_;
  Status loop_status_;
  std::thread loop_;  // declared last: joined before the members it uses go
};

/// Plans a body exactly as EstimateService does.
Result<pp::PlanNodePtr> PlanBody(const std::string& body, bool sql) {
  const pp::PlanLimits limits;
  if (!sql) return pp::ParsePlanText(body, limits);
  prestroid::sql::ParseLimits sql_limits;
  sql_limits.max_depth = limits.max_predicate_depth;
  PRESTROID_ASSIGN_OR_RETURN(auto stmt,
                             prestroid::sql::ParseSelect(body, sql_limits));
  PRESTROID_ASSIGN_OR_RETURN(pp::Catalog catalog, pn::SynthesizeCatalog(*stmt));
  return pp::Planner(&catalog).Plan(*stmt);
}

std::string InputsPath(const Options& options) {
  return StrFormat("%s/%s-seed%llu.inputs", options.work_dir.c_str(),
                   options.workload.c_str(),
                   static_cast<unsigned long long>(options.seed));
}

/// The request pool of one run, as the helper process writes it: per body
/// its reference answer, its plan's node count and its bytes.
struct Inputs {
  std::vector<std::string> bodies;
  std::vector<double> reference;
  std::vector<size_t> nodes;
};

Status WriteInputsFile(const std::string& path, const Inputs& inputs) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << "perfbench-inputs " << inputs.bodies.size() << "\n";
    for (size_t i = 0; i < inputs.bodies.size(); ++i) {
      out << JsonNumber(inputs.reference[i]) << " " << inputs.nodes[i] << " "
          << inputs.bodies[i].size() << "\n"
          << inputs.bodies[i] << "\n";
    }
    out.flush();
    if (!out) return Status::IoError("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp);
  }
  return Status::OK();
}

Result<Inputs> ReadInputsFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string tag;
  size_t count = 0;
  if (!(in >> tag >> count) || tag != "perfbench-inputs") {
    return Status::ParseError("bad inputs file " + path);
  }
  Inputs inputs;
  for (size_t i = 0; i < count; ++i) {
    double reference = 0.0;
    size_t nodes = 0, size = 0;
    if (!(in >> reference >> nodes >> size) || in.get() != '\n') {
      return Status::ParseError("bad inputs record in " + path);
    }
    std::string body(size, '\0');
    if (!in.read(body.data(), static_cast<std::streamsize>(size))) {
      return Status::ParseError("truncated inputs file " + path);
    }
    inputs.bodies.push_back(std::move(body));
    inputs.reference.push_back(reference);
    inputs.nodes.push_back(nodes);
  }
  return inputs;
}

/// The parity envelope: 1e-5 absolute (the in-process batched-vs-single
/// contract) plus half a unit in the sixth significant digit, the precision
/// the response prints cpu_minutes with.
bool MatchesReference(double got, double reference) {
  if (!std::isfinite(got)) return false;
  const double magnitude = std::max(std::fabs(got), std::fabs(reference));
  const double quantum =
      magnitude == 0.0
          ? 0.0
          : 0.5 * std::pow(10.0, std::floor(std::log10(magnitude)) - 5.0);
  return std::fabs(got - reference) <= 1e-5 + quantum;
}

/// Counts of one phase, for the sanity record and the gate.
struct PhaseCounts {
  size_t sent = 0;
  size_t succeeded = 0;
  size_t transport = 0;  // unanswered: reset, timeout, malformed
  size_t non200 = 0;
  size_t degraded = 0;
  size_t mismatches = 0;
  size_t failed() const { return sent - succeeded; }
};

struct Phase {
  std::string name;
  double rate = 0.0;
  std::vector<Sample> samples;
  std::vector<bool> ok;
  size_t backlog_at_end = 0;
  PhaseCounts counts;
  double lag_p99_ms = 0.0;
  double steal_share = 0.0;
  bool starved = false;
  /// Saturation phases: CPU time the serving stack's threads ran (the
  /// process's, less the generator's and the speed probe's), and the
  /// probe's slowdown over the phase.
  double stack_cpu_s = 0.0;
  double slowdown = 1.0;
  prestroid::cost::ServingStats stats;  // runtime counters over the phase
};

prestroid::cost::ServingStats StatsDelta(
    const prestroid::cost::ServingStats& before,
    const prestroid::cost::ServingStats& after) {
  prestroid::cost::ServingStats d = after;
  d.requests -= before.requests;
  for (size_t i = 0; i < prestroid::cost::kNumServingTiers; ++i) {
    d.by_tier[i] -= before.by_tier[i];
  }
  d.deadline_skips -= before.deadline_skips;
  d.rejected_requests -= before.rejected_requests;
  d.cache_hits -= before.cache_hits;
  d.cache_misses -= before.cache_misses;
  return d;
}

double HitRatio(const prestroid::cost::ServingStats& stats) {
  const size_t lookups = stats.cache_hits + stats.cache_misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(stats.cache_hits) /
                            static_cast<double>(lookups);
}

std::string CountsJson(const Phase& phase) {
  return StrFormat(
      "{\"phase\": %s, \"rate_per_s\": %s, \"sent\": %zu, \"succeeded\": %zu, "
      "\"failed\": %zu, \"transport_errors\": %zu, \"non200\": %zu, "
      "\"degraded\": %zu, \"mismatches\": %zu, \"send_lag_p99_ms\": %s, "
      "\"steal_share\": %s, \"backlog_at_end\": %zu, "
      "\"cache_hit_ratio\": %s}",
      JsonString(phase.name).c_str(), JsonNumber(phase.rate).c_str(),
      phase.counts.sent, phase.counts.succeeded, phase.counts.failed(),
      phase.counts.transport, phase.counts.non200, phase.counts.degraded,
      phase.counts.mismatches, JsonNumber(phase.lag_p99_ms).c_str(),
      JsonNumber(phase.steal_share).c_str(), phase.backlog_at_end,
      JsonNumber(HitRatio(phase.stats)).c_str());
}

class ServingRun {
 public:
  ServingRun(const Options& options, bool churn)
      : options_(options), churn_(churn), shape_(ShapeOf(churn)),
        spans_(Clock::now()), setup_(options) {}

  Report Run();

 private:
  Status Prepare();
  Phase RunPhase(const std::string& name, double rate, double duration_s,
                 uint64_t phase_seed, bool record_spans);
  void Check(Phase* phase);
  Phase RunWindowPhase(const std::string& name, double duration_s,
                       uint64_t phase_seed);
  uint32_t NextBody(prestroid::Rng* rng);
  double Throughput(Report* report);
  void Replay(const Phase& phase, Report* report);
  void FeaturizeAndForward(Report* report);

  Options options_;
  bool churn_;
  Shape shape_;
  SpanRecorder spans_;
  SetupSampler setup_;

  ModelFiles model_;
  std::vector<prestroid::workload::QueryRecord> records_;
  std::vector<std::string> wire_;
  std::vector<double> reference_;
  // Traced run only: the pool's plans and a model of its own for the replay.
  std::vector<pp::PlanNodePtr> plans_;
  std::unique_ptr<pc::PrestroidPipeline> reference_model_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<LoadGenerator> generator_;

  std::vector<double> ingest_s_;
  std::vector<std::string> phase_json_;
  PhaseCounts totals_;
  std::vector<std::string> report_lines_;
  size_t pool_size_ = 0;
  double pool_mean_nodes_ = 0.0;
  size_t churn_cursor_ = 0;
  /// Some phase's generator was still late after its last attempt.
  bool starved_ = false;
};

Status ServingRun::Prepare() {
  PRESTROID_ASSIGN_OR_RETURN(model_, PrepareServingModel(options_.work_dir));
  std::string ignored;
  if (!RunChild(options_, "inputs", &ignored)) {
    return Status::Internal("the inputs helper process failed");
  }
  PRESTROID_ASSIGN_OR_RETURN(Inputs inputs,
                             ReadInputsFile(InputsPath(options_)));
  pool_size_ = inputs.bodies.size();
  pool_mean_nodes_ =
      static_cast<double>(std::accumulate(inputs.nodes.begin(),
                                          inputs.nodes.end(), size_t{0})) /
      static_cast<double>(std::max<size_t>(1, pool_size_));
  reference_ = std::move(inputs.reference);
  for (const std::string& body : inputs.bodies) {
    wire_.push_back(EstimateRequest(body, shape_.sql));
  }
  // The serving tier's own input: FitFallbacks learns from the trace.
  PRESTROID_ASSIGN_OR_RETURN(
      records_, prestroid::workload::ReadTraceFile(model_.trace_path));
  if (options_.trace) {
    for (size_t i = 0; i < kIngestRepeats; ++i) {
      const Clock::time_point t = Clock::now();
      PRESTROID_ASSIGN_OR_RETURN(
          const auto records,
          prestroid::workload::ReadTraceFile(model_.trace_path));
      ingest_s_.push_back(SecondsSince(t));
    }
    PRESTROID_ASSIGN_OR_RETURN(
        reference_model_, pc::PrestroidPipeline::LoadFile(model_.model_path));
    for (const std::string& body : inputs.bodies) {
      PRESTROID_ASSIGN_OR_RETURN(pp::PlanNodePtr plan,
                                 PlanBody(body, shape_.sql));
      plans_.push_back(std::move(plan));
    }
  }
  return Status::OK();
}

Phase ServingRun::RunPhase(const std::string& name, double rate,
                           double duration_s, uint64_t phase_seed,
                           bool record_spans) {
  prestroid::Rng rng(options_.seed * 1000003 + phase_seed);
  const Schedule schedule =
      PoissonSchedule(&rng, rate, duration_s,
                      [&](prestroid::Rng* r, size_t) { return NextBody(r); });
  Phase phase;
  double phase_start_ms = 0.0;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kRetryPauseS));
    }
    phase = Phase();
    phase.name = attempt ? StrFormat("%s-retry%d", name.c_str(), attempt)
                         : name;
    phase.rate = rate;
    const prestroid::cost::ServingStats before =
        stack_->runtime().StatsSnapshot();
    phase_start_ms = spans_.NowMs();
    const CpuTicks ticks = ReadCpuTicks();
    // The grace only runs out when the program has stalled: an overloaded
    // rung's backlog drains well within it.
    phase.samples = generator_->Run(schedule, /*grace_s=*/10.0,
                                    &phase.backlog_at_end);
    std::vector<double> lag;
    lag.reserve(phase.samples.size());
    for (const Sample& s : phase.samples) {
      lag.push_back(s.sent_ms - s.intended_ms);
    }
    phase.lag_p99_ms = Percentile(lag, 99.0);
    phase.steal_share = StealShare(ticks, ReadCpuTicks());
    phase.starved = phase.lag_p99_ms > kMaxLagShareOfLimit * kLimitMs;
    phase.stats = StatsDelta(before, stack_->runtime().StatsSnapshot());
    // Every attempt's answers are checked and counted, kept or not.
    Check(&phase);
    if (!phase.starved) break;
    report_lines_.push_back(StrFormat(
        "warning: phase %s: generator send lag p99 %.3f ms exceeds %.0f%% of "
        "the %.1f ms limit",
        phase.name.c_str(), phase.lag_p99_ms, 100 * kMaxLagShareOfLimit,
        kLimitMs));
  }
  if (phase.starved) starved_ = true;
  if (record_spans) {
    for (size_t i = 0; i < phase.samples.size(); ++i) {
      const Sample& s = phase.samples[i];
      if (!s.answered()) continue;
      const int64_t request = static_cast<int64_t>(i);
      const double base = phase_start_ms;
      const int64_t wire = spans_.Add("wire", base + s.intended_ms,
                                      base + s.done_ms, -1, request);
      spans_.Add("loadgen.send_lag", base + s.intended_ms, base + s.sent_ms,
                 wire, request);
      const int64_t server = spans_.Add("server", base + s.sent_ms,
                                        base + s.done_ms, wire, request);
      // Only the duration of the runtime's share is observable from outside;
      // it is anchored at the start of the server span.
      spans_.Add("serve.runtime", base + s.sent_ms,
                 base + s.sent_ms + s.runtime_ms, server, request);
    }
  }
  return phase;
}

void ServingRun::Check(Phase* phase) {
  PhaseCounts& c = phase->counts;
  phase->ok.assign(phase->samples.size(), false);
  for (size_t i = 0; i < phase->samples.size(); ++i) {
    const Sample& s = phase->samples[i];
    ++c.sent;
    if (!s.answered()) {
      ++c.transport;
    } else if (s.status != 200) {
      ++c.non200;
    } else if (!s.model_tier || s.degraded) {
      ++c.degraded;
    } else if (!MatchesReference(s.cpu_minutes, reference_[s.body])) {
      ++c.mismatches;
    } else {
      ++c.succeeded;
      phase->ok[i] = true;
    }
  }
  totals_.sent += c.sent;
  totals_.succeeded += c.succeeded;
  totals_.transport += c.transport;
  totals_.non200 += c.non200;
  totals_.degraded += c.degraded;
  totals_.mismatches += c.mismatches;
  phase_json_.push_back(CountsJson(*phase));
}

Report ServingRun::Run() {
  Report report;
  Status status = Prepare();
  if (status.ok()) {
    // The stack that serves the run is one set-up sample; helper processes
    // add three more before every phase.
    stack_ = std::make_unique<Stack>();
    SetupTimes times;
    const double start_ms = spans_.NowMs();
    status = stack_->Start(model_.model_path, records_, &times);
    spans_.Add("setup", start_ms, spans_.NowMs());
    if (status.ok()) setup_.Add(times);
  }
  if (status.ok()) {
    generator_ = std::make_unique<LoadGenerator>(stack_->port(), kConnections,
                                                 &wire_);
    if (!generator_->ok()) status = Status::IoError("cannot connect");
  }
  if (!status.ok()) {
    report.correct = false;
    report.attempted = 1;
    report.failed = 1;
    report.Note("error: " + status.ToString());
    return report;
  }

  const double budget = options_.seconds;
  // Cold set-up samples are taken between phases, while the stack is idle,
  // so that they spread over the whole run.
  setup_.Sample();
  // Warm-up: fills the caches and the first-touch allocations; checked, not
  // timed.
  RunPhase("warmup", shape_.nominal_rate, std::max(0.3, 0.05 * budget), 1,
           false);
  if (options_.trace) {
    // Untraced and traced passes over the same schedule: their difference
    // is the tracing overhead.
    setup_.Sample();
    const Phase plain = RunPhase("nominal", shape_.nominal_rate,
                                 kNominalShare * budget, 2, false);
    setup_.Sample();
    const Phase traced = RunPhase("nominal-traced", shape_.nominal_rate,
                                  kNominalShare * budget, 2, true);
    std::vector<double> lat_plain, lat_traced, lag, overhead, runtime;
    for (const Sample& s : plain.samples) {
      if (s.answered()) lat_plain.push_back(s.latency_ms());
    }
    for (const Sample& s : traced.samples) {
      if (!s.answered()) continue;
      lat_traced.push_back(s.latency_ms());
      lag.push_back(s.sent_ms - s.intended_ms);
      overhead.push_back(s.wire_ms() - s.runtime_ms);
      runtime.push_back(s.runtime_ms);
    }
    report.Add("loadgen.send_lag_p99_ms", Percentile(lag, 99.0), "ms");
    report.Add("net.overhead_p50_ms", Percentile(overhead, 50.0), "ms");
    report.Add("net.overhead_p99_ms", Percentile(overhead, 99.0), "ms");
    report.Add("serve.runtime_p50_ms", Percentile(runtime, 50.0), "ms");
    report.Add("serve.runtime_p99_ms", Percentile(runtime, 99.0), "ms");
    report.Add("serve.cache_hit_ratio", HitRatio(traced.stats), "ratio");
    report.Add("serve.queue_high_watermark",
               static_cast<double>(traced.stats.queue_high_watermark),
               "count");
    report.Add("serve.rejected_requests",
               static_cast<double>(traced.stats.rejected_requests), "count");
    report.Add("serve.deadline_skips",
               static_cast<double>(traced.stats.deadline_skips), "count");
    report.Add("serve.degraded_share",
               static_cast<double>(traced.counts.degraded) /
                   static_cast<double>(std::max<size_t>(1, traced.counts.sent)),
               "ratio");
    report.Add("trace.overhead_p50_ms",
               Percentile(lat_traced, 50.0) - Percentile(lat_plain, 50.0),
               "ms");
    report.Add("core.load_s", setup_.Median(&SetupTimes::load_s) / kShards,
               "s");
    report.Add("cost.fallback_fit_s",
               setup_.Median(&SetupTimes::fallback_s) / kShards, "s");
    report.Add("workload.ingest_s", Median(ingest_s_), "s");
    Replay(traced, &report);
    FeaturizeAndForward(&report);
    report.Note(StrFormat(
        "trace: %zu spans; tracing overhead on wire p50 %+.4f ms (traced "
        "%.4f vs untraced %.4f, %zu vs %zu samples)",
        spans_.spans().size(),
        Percentile(lat_traced, 50.0) - Percentile(lat_plain, 50.0),
        Percentile(lat_traced, 50.0), Percentile(lat_plain, 50.0),
        lat_traced.size(), lat_plain.size()));
    report.Note(
        "trace: the batch size of each fused forward is not visible from "
        "outside the program; nn.forward_us_b1/b4 bracket it (in-program "
        "spans are future work)");
    const std::string span_path =
        StrFormat("%s/%s-seed%llu.spans.jsonl", options_.work_dir.c_str(),
                  options_.workload.c_str(),
                  static_cast<unsigned long long>(options_.seed));
    if (!spans_.WriteJsonLines(span_path)) {
      report.Note("warning: could not write " + span_path);
    } else {
      report.Note("trace: spans written to " + span_path);
    }
  } else {
    // The nominal rate runs as short segments, each with its own schedule.
    // Latency is pooled over the kKeptSegments of them during which the
    // hypervisor stole the least CPU from the box: on a shared host steal
    // comes in spells of seconds, and a vCPU that is not running delays
    // every wake-up of the threads on it, so a stall the host imposes is
    // not charged to the program. The gate still checks every segment.
    std::vector<Phase> segments;
    for (size_t k = 0; k < kSegments; ++k) {
      if (k % 2 == 0) setup_.Sample();
      segments.push_back(RunPhase(StrFormat("nominal-%zu", k),
                                  shape_.nominal_rate,
                                  kNominalShare * budget / kSegments, 2 + k,
                                  false));
    }
    std::vector<size_t> order(kSegments);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return segments[a].steal_share < segments[b].steal_share;
    });
    std::vector<double> latency;
    for (size_t k = 0; k < kKeptSegments; ++k) {
      const Phase& segment = segments[order[k]];
      for (size_t i = 0; i < segment.samples.size(); ++i) {
        // A failed request misses every limit.
        latency.push_back(segment.ok[i]
                              ? segment.samples[i].latency_ms()
                              : std::numeric_limits<double>::infinity());
      }
    }
    prestroid::cost::ServingStats nominal_stats;
    for (const Phase& segment : segments) {
      nominal_stats.cache_hits += segment.stats.cache_hits;
      nominal_stats.cache_misses += segment.stats.cache_misses;
    }
    const double p50 = Percentile(latency, 50.0);
    const double p95 = Percentile(latency, 95.0);
    const double p99 = Percentile(latency, 99.0);
    report.Add("latency_p50_ms", p50, "ms");
    report.Add("throughput_per_cpu_s", Throughput(&report), "1/s");
    // Peak RSS through set-up, steady serving and saturation, where every
    // batch fills and the buffers reach their working size.
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    // After the saturation phase: its segments take set-up samples too.
    report.Add("setup_s", setup_.Median(&SetupTimes::total_s), "s");
    report.Detail("nominal", StrFormat(
        "{\"rate_per_s\": %s, \"samples\": %zu, \"p50_ms\": %s, "
        "\"p95_ms\": %s, \"p99_ms\": %s}",
        JsonNumber(shape_.nominal_rate).c_str(), latency.size(),
        JsonNumber(p50).c_str(), JsonNumber(p95).c_str(),
        JsonNumber(p99).c_str()));
    report.Note(StrFormat(
        "%s: nominal %.0f req/s open loop over %zu connections, %zu samples "
        "from the %zu least-stolen of %zu segments: p50 %.4f ms, p95 %.4f "
        "ms, p99 %.4f ms; cache hit ratio %.4f",
        options_.workload.c_str(), shape_.nominal_rate, kConnections,
        latency.size(), kKeptSegments, kSegments, p50, p95, p99,
        HitRatio(nominal_stats)));
    const double hit = HitRatio(nominal_stats);
    const bool sane = churn_ ? hit <= 0.05 : hit >= 0.95;
    report.Detail("workload_sane", sane ? "true" : "false");
    if (!sane) {
      report.Note(StrFormat(
          "warning: %s cache hit ratio %.4f is outside its expected range "
          "(%s); the workload no longer exercises what it claims",
          options_.workload.c_str(), hit, churn_ ? "<= 0.05" : ">= 0.95"));
    }
  }
  generator_.reset();
  stack_->Stop();
  if (!stack_->loop_status().ok()) {
    report.Note("error: event loop: " + stack_->loop_status().ToString());
    ++totals_.transport;
  }
  for (std::string& line : report_lines_) report.Note(std::move(line));
  // Operations: every request sent and every cold set-up.
  const size_t setups = setup_.samples().size() + setup_.failures();
  report.attempted = totals_.sent + setups;
  report.failed = totals_.failed() + setup_.failures();
  report.correct = report.failed == 0;
  if (starved_) {
    report.invalid = true;
    report.Note(StrFormat(
        "invalid run: the generator was still late after %d attempts of a "
        "phase; the run measured the box, not the program",
        kMaxAttempts));
  }
  if (options_.trace) {
    report.Add("net.responses_non200", static_cast<double>(totals_.non200),
               "count");
  }
  std::string phases = "[";
  for (size_t i = 0; i < phase_json_.size(); ++i) {
    phases += (i ? ", " : "") + phase_json_[i];
  }
  report.Detail("phases", phases + "]");
  report.Detail("pool", StrFormat("{\"bodies\": %zu, \"mean_plan_nodes\": %s}",
                                  pool_size_,
                                  JsonNumber(pool_mean_nodes_).c_str()));
  report.Detail("setup_s_samples", setup_.TotalsJson());
  report.Note(StrFormat(
      "gate: %zu sent, %zu ok, %zu transport errors, %zu non-200, %zu "
      "degraded, %zu parity mismatches; %zu cold set-ups, %zu failed",
      totals_.sent, totals_.succeeded, totals_.transport, totals_.non200,
      totals_.degraded, totals_.mismatches, setups, setup_.failures()));
  return report;
}

uint32_t ServingRun::NextBody(prestroid::Rng* rng) {
  // recurring draws uniformly from its pool; churn walks its pool in order,
  // continuing across phases, so a body returns only after all the others.
  const size_t pool = wire_.size();
  if (!churn_) return static_cast<uint32_t>(rng->NextUint64(pool));
  churn_cursor_ = (churn_cursor_ + 1) % pool;
  return static_cast<uint32_t>(churn_cursor_);
}

Phase ServingRun::RunWindowPhase(const std::string& name, double duration_s,
                                 uint64_t phase_seed) {
  setup_.Sample();
  prestroid::Rng rng(options_.seed * 1000003 + phase_seed);
  Phase phase;
  phase.name = name;
  const prestroid::cost::ServingStats before =
      stack_->runtime().StatsSnapshot();
  const CpuTicks ticks = ReadCpuTicks();
  const double process_cpu = ProcessCpuSeconds();
  const double generator_cpu = ThreadCpuSeconds();
  SpeedProbe probe(AllowedCpus());
  phase.samples = generator_->RunWindow(
      kWindowPerConnection, duration_s, /*grace_s=*/10.0,
      [&]() { return NextBody(&rng); });
  probe.Stop();
  phase.stack_cpu_s = (ProcessCpuSeconds() - process_cpu) -
                      (ThreadCpuSeconds() - generator_cpu) - probe.cpu_s();
  phase.slowdown = probe.Slowdown();
  phase.steal_share = StealShare(ticks, ReadCpuTicks());
  phase.stats = StatsDelta(before, stack_->runtime().StatsSnapshot());
  Check(&phase);
  return phase;
}

double ServingRun::Throughput(Report* report) {
  // Good answers (200, model tier, parity-checked) per CPU-second the
  // serving stack ran, with kWindowPerConnection requests outstanding on
  // every connection so that its threads stay busy. CPU time leaves out
  // what the generator, the hypervisor (steal) and the speed probe took;
  // the probe, on every CPU beside the stack (speed.h), puts each segment
  // at the reference speed. The median over the segments is reported.
  const double segment_s = kSaturationShare * options_.seconds /
                           static_cast<double>(kSaturationSegments);
  std::vector<double> rates, raw_rates, wall_rates;
  std::string json = "[";
  for (size_t k = 0; k < kSaturationSegments; ++k) {
    const Phase phase =
        RunWindowPhase(StrFormat("saturation-%zu", k), segment_s, 200 + k);
    size_t good = 0;
    for (size_t i = 0; i < phase.samples.size(); ++i) good += phase.ok[i];
    raw_rates.push_back(static_cast<double>(good) /
                        std::max(phase.stack_cpu_s, 1e-9));
    rates.push_back(raw_rates.back() * phase.slowdown);
    wall_rates.push_back(static_cast<double>(good) / segment_s);
    json += StrFormat(
        "%s{\"good\": %zu, \"stack_cpu_s\": %s, \"slowdown\": %s, "
        "\"good_per_s\": %s, \"steal_share\": %s}",
        k ? ", " : "", good, JsonNumber(phase.stack_cpu_s).c_str(),
        JsonNumber(phase.slowdown).c_str(),
        JsonNumber(wall_rates.back()).c_str(),
        JsonNumber(phase.steal_share).c_str());
  }
  report->Detail("saturation", json + "]");
  report->Detail("throughput", StrFormat(
      "{\"raw_per_cpu_s\": %s, \"per_s\": %s}",
      JsonNumber(Median(raw_rates)).c_str(),
      JsonNumber(Median(wall_rates)).c_str()));
  report->Note(StrFormat(
      "saturation: %zu requests outstanding, %zu segments of %.2f s: median "
      "%.1f good answers per second by the wall clock, %.1f per stack "
      "CPU-second as timed, %.1f at the reference speed",
      kWindowPerConnection * kConnections, kSaturationSegments, segment_s,
      Median(wall_rates), Median(raw_rates), Median(rates)));
  return Median(rates);
}

void ServingRun::Replay(const Phase& phase, Report* report) {
  // Replays the traced phase's requests in order through each layer's
  // public entry points, one span per call.
  std::vector<double> http, parse_text, limits, sql_parse, sql_plan, finger;
  const pp::PlanLimits plan_limits;
  prestroid::sql::ParseLimits sql_limits;
  sql_limits.max_depth = plan_limits.max_predicate_depth;
  const size_t count = std::min<size_t>(phase.samples.size(), 4000);
  for (size_t i = 0; i < count; ++i) {
    const uint32_t body = phase.samples[i].body;
    const int64_t request = static_cast<int64_t>(i);
    const int64_t root =
        spans_.Add("replay", spans_.NowMs(), spans_.NowMs(), -1, request);
    struct CloseRoot {
      SpanRecorder* spans;
      int64_t id;
      ~CloseRoot() { spans->SetEnd(id, spans->NowMs()); }
    } close_root{&spans_, root};
    auto timed = [&](const char* name, std::vector<double>* out, auto&& fn) {
      const double start = spans_.NowMs();
      fn();
      const double end = spans_.NowMs();
      spans_.Add(name, start, end, root, request);
      out->push_back(1e3 * (end - start));
    };
    std::string buffer = wire_[body];
    pn::HttpParser parser(16 << 10, 64 << 20);
    pn::HttpRequest parsed;
    timed("net.http_parse", &http,
          [&] { parser.TryParse(&buffer, &parsed); });
    pp::PlanNodePtr plan;
    if (shape_.sql) {
      std::unique_ptr<prestroid::sql::SelectStmt> stmt;
      timed("sql.parse", &sql_parse, [&] {
        auto r = prestroid::sql::ParseSelect(parsed.body, sql_limits);
        if (r.ok()) stmt = std::move(r).value();
      });
      if (stmt == nullptr) continue;
      timed("sql.plan", &sql_plan, [&] {
        auto catalog = pn::SynthesizeCatalog(*stmt);
        if (!catalog.ok()) return;
        auto r = pp::Planner(&*catalog).Plan(*stmt);
        if (r.ok()) plan = std::move(r).value();
      });
    } else {
      timed("plan.parse_text", &parse_text, [&] {
        auto r = pp::ParsePlanText(parsed.body, plan_limits);
        if (r.ok()) plan = std::move(r).value();
      });
    }
    if (plan == nullptr) continue;
    timed("plan.limits", &limits,
          [&] { (void)pp::CheckPlanLimits(*plan, plan_limits); });
    timed("serve.fingerprint", &finger,
          [&] { (void)ps::FingerprintPlan(*plan); });
  }
  report->Add("net.http_parse_us", Mean(http), "us");
  if (shape_.sql) {
    report->Add("sql.parse_us", Mean(sql_parse), "us");
    report->Add("sql.plan_us", Mean(sql_plan), "us");
  } else {
    report->Add("plan.parse_text_us", Mean(parse_text), "us");
  }
  report->Add("plan.limits_us", Mean(limits), "us");
  report->Add("serve.fingerprint_us", Mean(finger), "us");
}

void ServingRun::FeaturizeAndForward(Report* report) {
  // The workload's distinct plans through the model's own stages.
  const size_t count = std::min<size_t>(plans_.size(), 512);
  std::vector<pc::PlanFeatures> features;
  std::vector<double> featurize_us;
  for (size_t i = 0; i < count; ++i) {
    const double start = spans_.NowMs();
    auto f = reference_model_->FeaturizePlan(*plans_[i]);
    const double end = spans_.NowMs();
    spans_.Add("core.featurize", start, end);
    if (!f.ok()) continue;
    featurize_us.push_back(1e3 * (end - start));
    features.push_back(std::move(f).value());
  }
  report->Add("core.featurize_us", Mean(featurize_us), "us");
  report->Add("core.featurize_p99_us", Percentile(featurize_us, 99.0), "us");

  prestroid::ExecutionContext* ctx = reference_model_->execution_context();
  auto forward = [&](size_t batch, std::vector<double>* us) {
    for (size_t i = 0; i + batch <= features.size(); i += batch) {
      std::vector<const pc::PlanFeatures*> rows;
      for (size_t j = 0; j < batch; ++j) rows.push_back(&features[i + j]);
      const double start = spans_.NowMs();
      const std::vector<double> out = reference_model_->PredictFeaturized(rows);
      const double end = spans_.NowMs();
      spans_.Add(batch == 1 ? "nn.forward.b1" : "nn.forward.b4", start, end);
      us->push_back(1e3 * (end - start));
    }
  };
  std::vector<double> b1, b4;
  ctx->ResetStats();
  forward(1, &b1);
  const double flops_per_plan =
      b1.empty() ? 0.0
                 : static_cast<double>(ctx->stats().flops) /
                       static_cast<double>(b1.size());
  forward(kConnections, &b4);
  report->Add("nn.forward_us_b1", Median(b1), "us");
  report->Add("nn.forward_us_b4", Median(b4), "us");
  report->Add("nn.forward_flops_per_plan", flops_per_plan, "flop");
  report->Add("nn.peak_scratch_bytes",
              static_cast<double>(ctx->stats().peak_scratch_bytes), "bytes");
  report->Add("nn.input_bytes_per_batch",
              static_cast<double>(
                  reference_model_->InputBytesPerBatch(kConnections)),
              "bytes");
}

}  // namespace

Status WriteServingInputs(const Options& options, bool churn) {
  const Shape shape = ShapeOf(churn);
  PRESTROID_ASSIGN_OR_RETURN(const ModelFiles model,
                             PrepareServingModel(options.work_dir));
  Inputs inputs;
  if (churn) {
    inputs.bodies = ChurnSql(options.seed, shape.pool);
  } else {
    PRESTROID_ASSIGN_OR_RETURN(inputs.bodies,
                               RecurringPlanTexts(options.seed, shape.pool));
  }
  PRESTROID_ASSIGN_OR_RETURN(const auto reference,
                             pc::PrestroidPipeline::LoadFile(model.model_path));
  for (const std::string& body : inputs.bodies) {
    PRESTROID_ASSIGN_OR_RETURN(const pp::PlanNodePtr plan,
                               PlanBody(body, shape.sql));
    PRESTROID_ASSIGN_OR_RETURN(const double minutes,
                               reference->PredictPlan(*plan));
    inputs.reference.push_back(minutes);
    inputs.nodes.push_back(pp::ComputePlanStats(*plan).node_count);
  }
  return WriteInputsFile(InputsPath(options), inputs);
}

Result<SetupTimes> ProbeServingSetup(const Options& options) {
  PRESTROID_ASSIGN_OR_RETURN(const ModelFiles model,
                             PrepareServingModel(options.work_dir));
  PRESTROID_ASSIGN_OR_RETURN(
      const auto records, prestroid::workload::ReadTraceFile(model.trace_path));
  SetupTimes times;
  Stack stack;
  PRESTROID_RETURN_NOT_OK(stack.Start(model.model_path, records, &times));
  return times;
}

Report RunServing(const Options& options, bool churn) {
  const size_t threads = 1 /*generator*/ + 1 /*event loop*/ + kShards;
  if (threads > UsableCpus()) {
    Report report;
    report.invalid = true;
    report.Note(StrFormat(
        "refusing to run: generator + event loop + %zu shard threads = %zu "
        "exceed the %zu usable CPUs",
        kShards, threads, UsableCpus()));
    return report;
  }
  ServingRun run(options, churn);
  return run.Run();
}

}  // namespace perfbench
