// The `retrain` workload: the paper's own pipeline cost, offline. A seeded
// Grab-like trace file is ingested, fitted (Word2Vec, vocabularies,
// featurization), trained for a fixed number of epochs, evaluated on its
// held-out split, and scored both in batch and plan by plan.
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "inputs.h"
#include "nn/trainer.h"
#include "speed.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/dataset.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {

namespace pc = prestroid::core;
namespace pw = prestroid::workload;
using prestroid::Result;
using prestroid::Status;
using prestroid::StrFormat;

namespace {

constexpr size_t kQueries = 1200;
constexpr size_t kEpochs = 6;
constexpr size_t kBatch = 64;
/// Per-plan answers timed for the latency percentiles, in segments.
constexpr size_t kLatencySamples = 9600;
constexpr size_t kSegments = 8;

Report Fail(Report report, const std::string& why) {
  report.correct = false;
  report.failed = std::max<uint64_t>(report.failed, 1);
  report.attempted = std::max<uint64_t>(report.attempted, 1);
  report.Note("error: " + why);
  return report;
}

std::string TracePath(const Options& options) {
  return StrFormat("%s/retrain-seed%llu.trace", options.work_dir.c_str(),
                   static_cast<unsigned long long>(options.seed));
}

}  // namespace

Status WriteRetrainInputs(const Options& options) {
  PRESTROID_ASSIGN_OR_RETURN(const auto records,
                             GrabTrace(kQueries, options.seed * 7919 + 3));
  return pw::WriteTraceFile(TracePath(options), records);
}

Result<SetupTimes> ProbeRetrainSetup(const Options& options) {
  const Clock::time_point start = Clock::now();
  PRESTROID_ASSIGN_OR_RETURN(const auto records,
                             pw::ReadTraceFile(TracePath(options)));
  SetupTimes times;
  times.total_s = SecondsSince(start);
  return times;
}

Report RunRetrain(const Options& options) {
  Report report;
  SpanRecorder spans(Clock::now());
  SetupSampler setup(options);
  std::string ignored;
  if (!RunChild(options, "inputs", &ignored)) {
    return Fail(report, "the inputs helper process failed");
  }

  // Set-up is the trace ingest. This process's own ingest is one sample;
  // helper processes add one cold ingest before each later stage.
  std::vector<pw::QueryRecord> records;
  {
    const double start = spans.NowMs();
    auto read = pw::ReadTraceFile(TracePath(options));
    const double end = spans.NowMs();
    spans.Add("workload.ingest", start, end);
    if (!read.ok()) return Fail(report, read.status().ToString());
    records = std::move(read).value();
    SetupTimes times;
    times.total_s = (end - start) / 1e3;
    setup.Add(times);
  }
  prestroid::Rng rng(options.seed);
  const pw::DatasetSplits splits =
      pw::SplitRandom(records.size(), 0.8, 0.1, &rng);

  // Fit and Train run pinned to one CPU with a speed probe beside them
  // (speed.h), and are timed in the thread's CPU time, which leaves out what
  // the probe and the hypervisor (steal) took.
  const std::vector<int> cpus = AllowedCpus();
  auto probe_on = [&](int cpu) {
    if (cpu >= 0) PinThread({cpu});
    return std::make_unique<SpeedProbe>(cpu >= 0 ? std::vector<int>{cpu}
                                                 : std::vector<int>{});
  };
  // Stops `probe`, adds its bursts to `bursts`, lifts the pin, and returns
  // the probe's slowdown.
  auto release = [&](SpeedProbe* probe, std::vector<double>* bursts) {
    probe->Stop();
    const std::vector<double> taken = probe->bursts_us();
    bursts->insert(bursts->end(), taken.begin(), taken.end());
    if (!cpus.empty()) PinThread(cpus);
    return probe->Slowdown();
  };
  const int train_cpu = cpus.empty() ? -1 : cpus.back();
  std::vector<double> train_bursts;

  setup.Sample();
  auto probe = probe_on(train_cpu);
  double start = spans.NowMs();
  double cpu_start = ThreadCpuSeconds();
  auto fitted = pc::PrestroidPipeline::Fit(records, splits.train,
                                           GrabPipelineConfig());
  const double fit_cpu_s = ThreadCpuSeconds() - cpu_start;
  const double fit_s = (spans.NowMs() - start) / 1e3;
  spans.Add("core.fit", start, spans.NowMs());
  release(probe.get(), &train_bursts);
  if (!fitted.ok()) return Fail(report, fitted.status().ToString());
  std::unique_ptr<pc::PrestroidPipeline> pipeline = std::move(fitted).value();
  prestroid::ExecutionContext* ctx = pipeline->execution_context();

  prestroid::TrainConfig train;
  train.max_epochs = kEpochs;
  train.patience = kEpochs + 1;  // no early stop: every run trains kEpochs
  train.batch_size = kBatch;
  train.shuffle_seed = options.seed * 31 + 5;
  setup.Sample();
  ctx->ResetStats();
  probe = probe_on(train_cpu);
  start = spans.NowMs();
  cpu_start = ThreadCpuSeconds();
  const prestroid::TrainResult trained = pipeline->Train(splits, train);
  const double train_cpu_s = ThreadCpuSeconds() - cpu_start;
  const double train_s = (spans.NowMs() - start) / 1e3;
  spans.Add("nn.train", start, spans.NowMs());
  release(probe.get(), &train_bursts);
  const double train_flops = static_cast<double>(ctx->stats().flops);
  const double train_slowdown = SpeedProbe::SlowdownOf(train_bursts);

  if (trained.diverged || trained.epochs_run != kEpochs) {
    return Fail(report, StrFormat("training ran %zu of %zu epochs%s",
                                  trained.epochs_run, kEpochs,
                                  trained.diverged ? " and diverged" : ""));
  }
  setup.Sample();
  start = spans.NowMs();
  const double test_mse = pipeline->EvaluateMseMinutes(splits.test);
  spans.Add("core.evaluate", start, spans.NowMs());
  if (!std::isfinite(test_mse)) {
    return Fail(report, "non-finite test MSE");
  }
  setup.Sample();

  std::vector<size_t> all(records.size());
  std::iota(all.begin(), all.end(), size_t{0});
  start = spans.NowMs();
  const std::vector<double> scores = pipeline->PredictMinutes(all);
  const double score_s = (spans.NowMs() - start) / 1e3;
  spans.Add("nn.score", start, spans.NowMs());
  for (double s : scores) {
    if (!std::isfinite(s)) return Fail(report, "non-finite batch score");
  }

  // Plan-by-plan answers of the fresh model (the deployment path): the
  // latency a user of the retrained model sees. They are timed in segments,
  // each pinned to the next CPU in turn with a speed probe beside it, in the
  // thread's CPU time. Each answer is taken at the reference speed with the
  // slowdown its segment's probe saw. The traced run times the same calls
  // once more with a span around each.
  std::vector<double> latency_bursts;
  auto per_plan = [&](bool traced, std::vector<double>* ms,
                      std::vector<double>* raw_ms) {
    for (size_t k = 0; k < kSegments; ++k) {
      setup.Sample();
      auto segment_probe = probe_on(cpus.empty() ? -1 : cpus[k % cpus.size()]);
      const size_t first = raw_ms->size();
      for (size_t j = 0; j < kLatencySamples / kSegments; ++j) {
        const size_t i = k * (kLatencySamples / kSegments) + j;
        const size_t r = i % records.size();
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = ThreadCpuSeconds();
        auto answer = pipeline->PredictPlan(*records[r].plan);
        const double cpu_ms = 1e3 * (ThreadCpuSeconds() - cpu0);
        const Clock::time_point t1 = Clock::now();
        if (traced) {
          spans.Add("core.predict_plan", spans.ToMs(t0), spans.ToMs(t1), -1,
                    static_cast<int64_t>(i));
        }
        if (!answer.ok() || !std::isfinite(*answer)) {
          release(segment_probe.get(), &latency_bursts);
          return false;
        }
        raw_ms->push_back(cpu_ms);
      }
      const double slowdown = release(segment_probe.get(), &latency_bursts);
      for (size_t i = first; i < raw_ms->size(); ++i) {
        ms->push_back((*raw_ms)[i] / slowdown);
      }
    }
    return true;
  };
  std::vector<double> latency, raw_latency;
  if (!per_plan(false, &latency, &raw_latency)) {
    return Fail(report, "PredictPlan failed on a trace record");
  }

  const double train_records = static_cast<double>(splits.train.size());
  // Training samples per CPU-second of Fit + Train, at the reference speed.
  const double raw_throughput = train_records * static_cast<double>(kEpochs) /
                                (fit_cpu_s + train_cpu_s);
  const double throughput = raw_throughput * train_slowdown;
  if (!options.trace) {
    report.Add("setup_s", setup.Median(&SetupTimes::total_s), "s");
    report.Add("latency_p50_ms", Percentile(latency, 50.0), "ms");
    report.Add("throughput_per_cpu_s", throughput, "1/s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    std::vector<double> traced, raw_traced;
    if (!per_plan(true, &traced, &raw_traced)) {
      return Fail(report, "PredictPlan failed on a trace record");
    }
    report.Add("trace.overhead_p50_ms",
               Percentile(traced, 50.0) - Percentile(latency, 50.0), "ms");
    report.Add("workload.ingest_s", setup.Median(&SetupTimes::total_s), "s");
    report.Add("core.fit_s", fit_s, "s");
    report.Add("core.test_mse_min2", test_mse, "min2");
    report.Add("nn.epoch_s", train_s / static_cast<double>(trained.epochs_run),
               "s");
    report.Add("nn.train_flops_per_epoch",
               train_flops / static_cast<double>(trained.epochs_run), "flop");
    report.Add("nn.score_plans_per_s",
               static_cast<double>(records.size()) / score_s, "1/s");
    report.Add("nn.input_bytes_per_batch",
               static_cast<double>(pipeline->InputBytesPerBatch(kBatch)),
               "bytes");

    std::vector<pc::PlanFeatures> features;
    std::vector<double> featurize_us;
    for (const pw::QueryRecord& record : records) {
      const double t = spans.NowMs();
      auto f = pipeline->FeaturizePlan(*record.plan);
      const double end = spans.NowMs();
      spans.Add("core.featurize", t, end);
      featurize_us.push_back(1e3 * (end - t));
      if (f.ok()) features.push_back(std::move(f).value());
    }
    report.Add("core.featurize_us", Mean(featurize_us), "us");
    report.Add("core.featurize_p99_us", Percentile(featurize_us, 99.0), "us");
    std::vector<double> b1, b4;
    ctx->ResetStats();
    for (size_t batch : {size_t{1}, size_t{4}}) {
      for (size_t i = 0; i + batch <= features.size(); i += batch) {
        std::vector<const pc::PlanFeatures*> rows;
        for (size_t j = 0; j < batch; ++j) rows.push_back(&features[i + j]);
        const double t = spans.NowMs();
        (void)pipeline->PredictFeaturized(rows);
        const double end = spans.NowMs();
        spans.Add(batch == 1 ? "nn.forward.b1" : "nn.forward.b4", t, end);
        (batch == 1 ? b1 : b4).push_back(1e3 * (end - t));
      }
      if (batch == 1) {
        report.Add("nn.forward_flops_per_plan",
                   b1.empty() ? 0.0
                              : static_cast<double>(ctx->stats().flops) /
                                    static_cast<double>(b1.size()),
                   "flop");
      }
    }
    report.Add("nn.forward_us_b1", Median(b1), "us");
    report.Add("nn.forward_us_b4", Median(b4), "us");
    report.Add("nn.peak_scratch_bytes",
               static_cast<double>(ctx->stats().peak_scratch_bytes), "bytes");
    const std::string span_path =
        StrFormat("%s/retrain-seed%llu.spans.jsonl", options.work_dir.c_str(),
                  static_cast<unsigned long long>(options.seed));
    report.Note(spans.WriteJsonLines(span_path)
                    ? "trace: spans written to " + span_path
                    : "warning: could not write " + span_path);
  }
  report.Note(StrFormat(
      "retrain: %zu records (%zu train), fit %.3f s (%.3f CPU-s), %zu epochs "
      "in %.3f s (%.3f CPU-s); %.1f samples per CPU-second as timed, box "
      "slowdown %.3f; test MSE %.4f min^2, batch scoring %.0f plans/s; "
      "per-plan p50 %.4f ms p95 %.4f ms p99 %.4f ms as timed (CPU time), box "
      "slowdown %.3f, over %zu answers",
      records.size(), splits.train.size(), fit_s, fit_cpu_s,
      trained.epochs_run, train_s, train_cpu_s, raw_throughput,
      train_slowdown, test_mse, static_cast<double>(records.size()) / score_s,
      Percentile(raw_latency, 50.0), Percentile(raw_latency, 95.0),
      Percentile(raw_latency, 99.0),
      SpeedProbe::SlowdownOf(latency_bursts), raw_latency.size()));
  report.Detail("retrain", StrFormat(
      "{\"records\": %zu, \"train_records\": %zu, \"epochs_run\": %zu, "
      "\"fit_s\": %s, \"fit_cpu_s\": %s, \"train_s\": %s, "
      "\"train_cpu_s\": %s, \"train_slowdown\": %s, "
      "\"raw_throughput_per_cpu_s\": %s, \"raw_latency_p50_ms\": %s, "
      "\"latency_slowdown\": %s, \"score_s\": %s, \"test_mse_min2\": %s, "
      "\"setup_s_samples\": %s}",
      records.size(), splits.train.size(), trained.epochs_run,
      JsonNumber(fit_s).c_str(), JsonNumber(fit_cpu_s).c_str(),
      JsonNumber(train_s).c_str(), JsonNumber(train_cpu_s).c_str(),
      JsonNumber(train_slowdown).c_str(), JsonNumber(raw_throughput).c_str(),
      JsonNumber(Percentile(raw_latency, 50.0)).c_str(),
      JsonNumber(SpeedProbe::SlowdownOf(latency_bursts)).c_str(),
      JsonNumber(score_s).c_str(), JsonNumber(test_mse).c_str(),
      setup.TotalsJson().c_str()));
  // Operations: train, evaluate, score, and every cold set-up.
  report.attempted = 3 + setup.samples().size() + setup.failures();
  report.failed = setup.failures();
  report.correct = report.failed == 0;
  if (!report.correct) report.Note("error: a cold set-up (trace ingest) failed");
  return report;
}

}  // namespace perfbench
