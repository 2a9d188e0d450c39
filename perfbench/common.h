// Shared plumbing of the benchmark binary: clocks, raw-sample statistics,
// the in-memory span recorder of the traced run, and the report every
// workload fills in.
#ifndef PRESTROID_PERFBENCH_COMMON_H_
#define PRESTROID_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time the calling thread has run, in seconds. The kernel leaves out
/// time the hypervisor took from the vCPU (steal), and time the thread
/// waited for a CPU.
double ThreadCpuSeconds();

/// The same over every thread of the process.
double ProcessCpuSeconds();

/// Nearest-rank percentile of raw samples (p in [0, 100]); 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Median (mean of the middle two for an even count); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// What one run of the benchmark was asked to do.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for generated inputs, cached artifacts and result
  /// files (inside the checkout).
  std::string work_dir;
  /// Empty for a measured run; "inputs" or "setup" for a helper process the
  /// measured run starts (see SetupSampler and WriteInputs).
  std::string child;
};

/// Timings of one cold set-up.
struct SetupTimes {
  double total_s = 0.0;     // the whole set-up: one setup_s sample
  double load_s = 0.0;      // serving: LoadFile, every shard
  double fallback_s = 0.0;  // serving: FitFallbacks, every shard
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run reports. `metrics` becomes the result line;
/// `lines` are human-readable notes printed before it; `details` is a JSON
/// object body (without braces) written into the run's result file.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Set when the run did not measure the program: the box has too few
  /// CPUs, or the generator still ran late after its retries. No result line
  /// is printed, the result file says "valid": false, and the exit status
  /// is 3.
  bool invalid = false;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  std::vector<std::string> details;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(std::string line) { lines.push_back(std::move(line)); }
  /// Adds `"key": <raw json>` to the result file.
  void Detail(const std::string& key, const std::string& raw_json) {
    details.push_back("\"" + key + "\": " + raw_json);
  }
};

/// One span of the traced run: a named interval of one request (or of the
/// whole run when request == -1), with the id of the span that caused it.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t parent = -1;
  int64_t request = -1;
};

/// Keeps spans in memory; the run writes them out once, when it ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  double NowMs() const { return MsBetween(origin_, Clock::now()); }
  double ToMs(Clock::time_point t) const { return MsBetween(origin_, t); }

  /// Records a finished span; returns its id.
  int64_t Add(std::string name, double start_ms, double end_ms,
              int64_t parent = -1, int64_t request = -1) {
    spans_.push_back({std::move(name), start_ms, end_ms, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Closes a span opened with an end equal to its start.
  void SetEnd(int64_t id, double end_ms) {
    spans_[static_cast<size_t>(id)].end_ms = end_ms;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per line: {"id", "name", "start_ms", "end_ms",
  /// "parent", "request"}. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Box-wide CPU time counters (/proc/stat), in clock ticks.
struct CpuTicks {
  uint64_t steal = 0;  // time the hypervisor ran something else
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Share of the box's CPU time stolen by the hypervisor between two reads.
inline double StealShare(const CpuTicks& a, const CpuTicks& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

/// Process peak resident set size, MB.
double PeakRssMb();

/// CPUs this process may run on (what nproc prints).
size_t UsableCpus();

/// The ids of those CPUs.
std::vector<int> AllowedCpus();

/// Restricts the calling thread to `cpus`; false if the kernel refused.
bool PinThread(const std::vector<int>& cpus);

/// Runs this executable again as a `--child role` helper of the run
/// `options` describes, waits for it to end and returns its stdout in `out`.
/// False when the child cannot be started or does not exit with status 0.
bool RunChild(const Options& options, const std::string& role,
              std::string* out);

/// Collects setup_s samples. Each sample is a cold set-up in a fresh process
/// (`--child setup`), so it pays first-touch page faults and draws its own
/// memory placement, as a real start does. A run takes samples at several
/// points, so their median covers the whole run rather than one moment.
class SetupSampler {
 public:
  /// Cold set-ups per Sample() call. On a shared VM a set-up's time is
  /// bimodal, with a slow cluster ~1.5x the fast one whose share follows the
  /// host's load; the median only holds still when that share does, which
  /// takes a few dozen samples per run.
  static constexpr int kColdStartsPerSample = 3;

  explicit SetupSampler(const Options& options) : options_(options) {}

  /// Runs kColdStartsPerSample cold set-ups, each in a child process. A
  /// child that fails counts in failures().
  void Sample();
  /// Adds a sample timed in this process.
  void Add(const SetupTimes& times) { samples_.push_back(times); }

  const std::vector<SetupTimes>& samples() const { return samples_; }
  size_t failures() const { return failures_; }
  /// Median of one field over the samples.
  double Median(double SetupTimes::*field) const;
  /// The total_s samples as a JSON array.
  std::string TotalsJson() const;

 private:
  Options options_;
  std::vector<SetupTimes> samples_;
  size_t failures_ = 0;
};

/// Formats a double for JSON with all its digits.
std::string JsonNumber(double value);

/// JSON string literal with the minimal escapes.
std::string JsonString(const std::string& raw);

}  // namespace perfbench

#endif  // PRESTROID_PERFBENCH_COMMON_H_
