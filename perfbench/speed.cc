#include "speed.h"

#include <time.h>

#include <algorithm>
#include <string>

#include "common.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERFBENCH_PROBE_AVX2 1
#endif

namespace perfbench {

namespace {

constexpr size_t kDim = 32;               // dense part: kDim^3 multiply-adds
constexpr size_t kTextBytes = 4 << 10;    // hashed text per burst
constexpr size_t kTableSlots = 1 << 10;
constexpr size_t kChainSlots = 1 << 13;   // 32 KB of dependent loads
constexpr size_t kChaseSteps = 2000;

void DensePlain(const float* a, const float* b, float* c) {
  for (size_t i = 0; i < kDim; ++i) {
    for (size_t k = 0; k < kDim; ++k) {
      const float x = a[i * kDim + k];
      for (size_t j = 0; j < kDim; ++j) c[i * kDim + j] += x * b[k * kDim + j];
    }
  }
}

#ifdef PERFBENCH_PROBE_AVX2
/// c += a * b over kDim x kDim matrices with 256-bit fused multiply-adds, as
/// the program's own GEMM kernels use where the CPU has them.
__attribute__((target("avx2,fma"))) void DenseAvx2(const float* a,
                                                    const float* b,
                                                    float* c) {
  for (size_t i = 0; i < kDim; ++i) {
    for (size_t k = 0; k < kDim; ++k) {
      const __m256 x = _mm256_set1_ps(a[i * kDim + k]);
      for (size_t j = 0; j < kDim; j += 8) {
        __m256 acc = _mm256_loadu_ps(c + i * kDim + j);
        acc = _mm256_fmadd_ps(x, _mm256_loadu_ps(b + k * kDim + j), acc);
        _mm256_storeu_ps(c + i * kDim + j, acc);
      }
    }
  }
}
#endif

using DenseFn = void (*)(const float*, const float*, float*);

DenseFn PickDense() {
#ifdef PERFBENCH_PROBE_AVX2
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return DenseAvx2;
  }
#endif
  return DensePlain;
}

uint64_t NextState(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

/// The reference work: a small working set (about 50 KB, within L2), so a
/// burst measures how fast the core runs code rather than what the measured
/// threads left in the caches, and the measured threads lose little cache to
/// it.
class Kernel {
 public:
  Kernel()
      : a_(kDim * kDim), b_(kDim * kDim), c_(kDim * kDim, 0.0f),
        table_(kTableSlots, 0u), chain_(kChainSlots) {
    for (size_t i = 0; i < a_.size(); ++i) {
      a_[i] = 1e-3f * static_cast<float>(i % 97);
      b_[i] = 1e-3f * static_cast<float>(i % 89);
    }
    uint64_t state = 0x9E3779B97F4A7C15ULL;
    while (text_.size() < kTextBytes) {
      const uint64_t r = NextState(&state);
      text_ += "t" + std::to_string(r % 80) + ".c" + std::to_string(r % 13) +
               (r % 3 == 0 ? " = " : " > ") + std::to_string(r % 1000) + " ";
    }
    // One random cycle through every slot: each load depends on the last.
    std::vector<uint32_t> order(kChainSlots);
    for (uint32_t i = 0; i < kChainSlots; ++i) order[i] = i;
    for (size_t i = kChainSlots - 1; i > 0; --i) {
      std::swap(order[i], order[NextState(&state) % (i + 1)]);
    }
    for (size_t i = 0; i < kChainSlots; ++i) {
      chain_[order[i]] = order[(i + 1) % kChainSlots];
    }
  }

  void Run() {
    // Dense float multiply-adds, as in the model's forward and backward.
    for (int rep = 0; rep < 4; ++rep) dense_(a_.data(), b_.data(), c_.data());
    // Byte-wise tokenizing and hashing, as in parsing and featurization.
    uint32_t hash = 2166136261u;
    for (const char ch : text_) {
      if (ch == ' ') {
        ++table_[hash & (kTableSlots - 1)];
        hash = 2166136261u;
      } else {
        hash = (hash ^ static_cast<uint8_t>(ch)) * 16777619u;
      }
    }
    // Dependent loads, as in walking plan trees.
    uint32_t at = static_cast<uint32_t>(sink_ % kChainSlots);
    for (size_t i = 0; i < kChaseSteps; ++i) at = chain_[at];
    sink_ += at + table_[at & (kTableSlots - 1)] +
             static_cast<uint64_t>(c_[at % c_.size()] > 0.0f);
  }

  uint64_t sink() const { return sink_; }

 private:
  DenseFn dense_ = PickDense();
  std::vector<float> a_, b_, c_;
  std::string text_;
  std::vector<uint32_t> table_;
  std::vector<uint32_t> chain_;
  uint64_t sink_ = 0;
};

}  // namespace

SpeedProbe::SpeedProbe(const std::vector<int>& cpus) {
  for (int cpu : cpus) threads_.emplace_back([this, cpu]() { Sample(cpu); });
}

void SpeedProbe::Stop() {
  stop_.store(true);
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void SpeedProbe::Sample(int cpu) {
  PinThread({cpu});
  const double cpu_start = ThreadCpuSeconds();
  Kernel kernel;
  kernel.Run();  // first touch, not timed
  std::vector<double> bursts;
  struct timespec next;
  ::clock_gettime(CLOCK_MONOTONIC, &next);
  while (!stop_.load(std::memory_order_relaxed)) {
    const double start = ThreadCpuSeconds();
    kernel.Run();
    bursts.push_back(1e6 * (ThreadCpuSeconds() - start));
    // The next burst is due one period after this one was; after a long
    // preemption the schedule restarts from now rather than catching up.
    struct timespec now;
    ::clock_gettime(CLOCK_MONOTONIC, &now);
    next.tv_nsec += kPeriodUs * 1000;
    while (next.tv_nsec >= 1000000000) {
      next.tv_nsec -= 1000000000;
      ++next.tv_sec;
    }
    if (next.tv_sec < now.tv_sec ||
        (next.tv_sec == now.tv_sec && next.tv_nsec <= now.tv_nsec)) {
      next = now;
    }
    ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &next, nullptr);
  }
  std::lock_guard<std::mutex> lock(mu_);
  bursts_us_.insert(bursts_us_.end(), bursts.begin(), bursts.end());
  cpu_s_ += ThreadCpuSeconds() - cpu_start;
  sink_ += kernel.sink();
}

double SpeedProbe::Slowdown() const { return SlowdownOf(bursts_us()); }

double SpeedProbe::SlowdownOf(std::vector<double> bursts_us) {
  if (bursts_us.empty()) return 1.0;
  std::sort(bursts_us.begin(), bursts_us.end());
  bursts_us.resize(bursts_us.size() - bursts_us.size() / 50);
  return Mean(bursts_us) / kReferenceUs;
}

std::vector<double> SpeedProbe::bursts_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bursts_us_;
}

double SpeedProbe::cpu_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cpu_s_;
}

}  // namespace perfbench
