// How fast the CPUs run code while a measurement runs on them.
//
// On a shared VM the speed of a vCPU is not constant. A busy neighbour on
// the host's sibling hyperthread, or the host's turbo budget, makes the same
// code run up to 2-3x slower for milliseconds to minutes at a time, and the
// share of slow time follows the host's load. CPU time does not help: the
// vCPU is running, only slower. Two runs of the same program ten minutes
// apart then differ by 20-50%, more than a comparison can bound.
//
// A SpeedProbe runs one sampling thread on each given CPU, beside the
// measured work. Every kPeriodUs it wakes, runs a fixed burst of reference
// work (the benchmark's own code, never the program's, so no change to the
// program moves it) and times the burst in its own CPU time. The bursts
// therefore see the CPUs the measured threads run on, at the moments they
// run, and a preempted burst does not read slow. A CPU-bound time divided by
// the slowdown, or a rate multiplied by it, is the figure at the reference
// speed: the host's share of slow time cancels, a change to the program
// does not. The probe takes about 4% of each CPU; measured threads report
// CPU time, which does not count it.
#ifndef PRESTROID_PERFBENCH_SPEED_H_
#define PRESTROID_PERFBENCH_SPEED_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// Mean burst time at the reference speed, in microseconds: about the
  /// bursts' trimmed mean on a quiet 4-vCPU Intel Xeon VM. A scale only.
  static constexpr double kReferenceUs = 38.0;
  /// A burst starts every kPeriodUs on each sampled CPU.
  static constexpr int64_t kPeriodUs = 1000;

  /// Starts one sampling thread pinned to each of `cpus`.
  explicit SpeedProbe(const std::vector<int>& cpus);
  /// Stops and joins the sampling threads.
  ~SpeedProbe() { Stop(); }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Stops and joins the sampling threads; idempotent.
  void Stop();

  // After Stop():

  /// Trimmed mean burst time over kReferenceUs: above 1 the CPUs ran slower
  /// than the reference. The slowest 2% of bursts (a cold cache after a
  /// context switch, an interrupt) are left out. 1 when no burst ran.
  double Slowdown() const;

  /// The same over any burst times, e.g. several probes' together.
  static double SlowdownOf(std::vector<double> bursts_us);

  /// The bursts' times, in microseconds.
  std::vector<double> bursts_us() const;

  /// CPU time the sampling threads ran, in seconds.
  double cpu_s() const;

 private:
  void Sample(int cpu);

  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<double> bursts_us_;
  double cpu_s_ = 0.0;
  uint64_t sink_ = 0;  // keeps the bursts' results live
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PRESTROID_PERFBENCH_SPEED_H_
