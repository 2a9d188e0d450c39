// perfbench — runs one benchmark workload and prints its result line.
//
//   perfbench --workload recurring|churn|retrain --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--git-sha SHA]
//   perfbench --prepare DIR
//
// --prepare trains and caches the serving model under DIR (a one-off cost of
// a fresh checkout), in its own process so no measured run carries its
// memory or time. A measured run starts this executable again, with
// `--child inputs` to write its seeded inputs and reference answers and with
// `--child setup` for each cold set-up sample, so neither the generators nor
// the reference model count in its memory.
//
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of the traced run. The last
// line of stdout is {"correct", "attempted", "failed", "metrics"}; a full
// record of the run (provenance, per-phase counts, samples) is written to
// DIR/results/. Exit codes: 0 ok, 1 correctness gate failed (result line
// still printed), 2 usage, 3 invalid run (no result line: the box has too
// few CPUs, or the load generator still fell behind its schedule after its
// retries, so the run measured the box rather than the program).
#include <sys/stat.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "tensor/kernels/gemm_kernels.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_cpu_s", "1/s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"loadgen.send_lag_p99_ms", "ms"},
    {"net.overhead_p50_ms", "ms"},
    {"net.overhead_p99_ms", "ms"},
    {"net.http_parse_us", "us"},
    {"net.responses_non200", "count"},
    {"plan.parse_text_us", "us"},
    {"plan.limits_us", "us"},
    {"sql.parse_us", "us"},
    {"sql.plan_us", "us"},
    {"serve.runtime_p50_ms", "ms"},
    {"serve.runtime_p99_ms", "ms"},
    {"serve.fingerprint_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_high_watermark", "count"},
    {"serve.rejected_requests", "count"},
    {"serve.deadline_skips", "count"},
    {"serve.degraded_share", "ratio"},
    {"core.featurize_us", "us"},
    {"core.featurize_p99_us", "us"},
    {"core.load_s", "s"},
    {"core.fit_s", "s"},
    {"core.test_mse_min2", "min2"},
    {"nn.forward_us_b1", "us"},
    {"nn.forward_us_b4", "us"},
    {"nn.forward_flops_per_plan", "flop"},
    {"nn.train_flops_per_epoch", "flop"},
    {"nn.peak_scratch_bytes", "bytes"},
    {"nn.input_bytes_per_batch", "bytes"},
    {"nn.epoch_s", "s"},
    {"nn.score_plans_per_s", "1/s"},
    {"cost.fallback_fit_s", "s"},
    {"workload.ingest_s", "s"},
    {"trace.overhead_p50_ms", "ms"},
};

int Usage() {
  std::cerr << "usage: perfbench --workload recurring|churn|retrain --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--git-sha SHA] "
               "[--child inputs|setup]\n"
               "       perfbench --prepare DIR\n";
  return 2;
}

/// Orders the report's metrics as the spec lists them. A per-layer metric
/// the workload never touches is reported as 0 and named in a note; a
/// missing end-to-end metric is a bug in the benchmark.
bool Normalize(Report* report, bool trace) {
  const std::vector<MetricSpec>& spec = trace ? kPerLayer : kEndToEnd;
  std::vector<Metric> ordered;
  std::string off_path;
  for (const MetricSpec& m : spec) {
    const Metric* found = nullptr;
    for (const Metric& have : report->metrics) {
      if (have.name == m.name) found = &have;
    }
    if (found != nullptr) {
      ordered.push_back({m.name, found->value, m.unit});
    } else if (trace) {
      ordered.push_back({m.name, 0.0, m.unit});
      off_path += (off_path.empty() ? "" : ", ") + std::string(m.name);
    } else {
      report->Note(std::string("error: missing metric ") + m.name);
      return false;
    }
  }
  if (!off_path.empty()) {
    report->Note("off this workload's path (reported as 0): " + off_path);
  }
  report->metrics = std::move(ordered);
  return true;
}

std::string ResultLine(const Report& report) {
  std::string line = prestroid::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    line += prestroid::StrFormat("%s%s: {\"value\": %s, \"unit\": %s}",
                                 i ? ", " : "", JsonString(m.name).c_str(),
                                 JsonNumber(m.value).c_str(),
                                 JsonString(m.unit).c_str());
  }
  return line + "}}";
}

int Main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--prepare") == 0) {
    ::mkdir(argv[2], 0755);
    const auto model = PrepareServingModel(argv[2]);
    if (!model.ok()) {
      std::cerr << "prepare: " << model.status().ToString() << "\n";
      return 1;
    }
    return 0;
  }
  Options options;
  std::string git_sha = "unknown";
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--child") {
      options.child = value;
    } else {
      return Usage();
    }
  }
  static const std::set<std::string> kWorkloads = {"recurring", "churn",
                                                   "retrain"};
  if (argc % 2 == 0 || kWorkloads.count(options.workload) == 0 ||
      !have_trace || options.work_dir.empty() || !(options.seconds > 0.0)) {
    return Usage();
  }
  ::mkdir(options.work_dir.c_str(), 0755);
  const bool retrain = options.workload == "retrain";
  const bool churn = options.workload == "churn";
  if (options.child == "inputs") {
    const prestroid::Status written = retrain
                                          ? WriteRetrainInputs(options)
                                          : WriteServingInputs(options, churn);
    if (!written.ok()) std::cerr << "inputs: " << written.ToString() << "\n";
    return written.ok() ? 0 : 1;
  }
  if (options.child == "setup") {
    const auto times = retrain ? ProbeRetrainSetup(options)
                               : ProbeServingSetup(options);
    if (!times.ok()) {
      std::cerr << "setup: " << times.status().ToString() << "\n";
      return 1;
    }
    std::cout << JsonNumber(times->total_s) << " " << JsonNumber(times->load_s)
              << " " << JsonNumber(times->fallback_s) << "\n";
    return 0;
  }
  if (!options.child.empty()) return Usage();
  const std::string results_dir = options.work_dir + "/results";
  ::mkdir(results_dir.c_str(), 0755);

  Report report = retrain ? RunRetrain(options) : RunServing(options, churn);
  const bool complete = !report.invalid && Normalize(&report, options.trace);
  for (const std::string& line : report.lines) std::cout << line << "\n";
  std::cout << prestroid::StrFormat(
      "provenance: git %s, gemm isa %s, nproc %zu\n", git_sha.c_str(),
      prestroid::GemmBlockedIsaName(), UsableCpus());
  const std::string line = complete ? ResultLine(report) : "null";
  const std::string result_path = prestroid::StrFormat(
      "%s/%s-seed%llu-trace%d.json", results_dir.c_str(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0);
  std::ofstream out(result_path, std::ios::trunc);
  out << "{\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << JsonNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"valid\": " << (report.invalid ? "false" : "true")
      << ", \"provenance\": {\"git_sha\": " << JsonString(git_sha)
      << ", \"gemm_isa\": " << JsonString(prestroid::GemmBlockedIsaName())
      << ", \"nproc\": " << UsableCpus() << "}";
  for (const std::string& detail : report.details) out << ", " << detail;
  out << ", \"result\": " << line << "}\n";
  out.close();
  if (report.invalid) {
    std::cout << "invalid run: no result reported\n";
    return 3;
  }
  if (!complete) return 1;
  std::cout << line << std::endl;
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
