#include "common.h"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start_ms\": " << JsonNumber(s.start_ms)
        << ", \"end_ms\": " << JsonNumber(s.end_ms)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

namespace {

double CpuSeconds(clockid_t clock) {
  struct timespec ts;
  if (::clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return ticks;
  for (int field = 0; field < 10; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest fields are already counted in user/nice.
    if (field < 8) ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double PeakRssMb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

bool PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

bool RunChild(const Options& options, const std::string& role,
              std::string* out) {
  static const char kSelf[] = "/proc/self/exe";
  const std::vector<std::string> args = {
      "--child", role, "--workload", options.workload,
      "--seed", std::to_string(options.seed), "--seconds", "1",
      "--trace", "0", "--work-dir", options.work_dir};
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return false;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(kSelf));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int spawned =
      ::posix_spawn(&pid, kSelf, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (spawned != 0) {
    ::close(fds[0]);
    return false;
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out->append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void SetupSampler::Sample() {
  for (int i = 0; i < kColdStartsPerSample; ++i) {
    std::string out;
    SetupTimes times;
    const bool ran = RunChild(options_, "setup", &out);
    std::istringstream in(out);
    if (ran && (in >> times.total_s >> times.load_s >> times.fallback_s)) {
      samples_.push_back(times);
    } else {
      ++failures_;
    }
  }
}

double SetupSampler::Median(double SetupTimes::*field) const {
  std::vector<double> values;
  for (const SetupTimes& t : samples_) values.push_back(t.*field);
  return perfbench::Median(std::move(values));
}

std::string SetupSampler::TotalsJson() const {
  std::string json = "[";
  for (size_t i = 0; i < samples_.size(); ++i) {
    json += (i ? ", " : "") + JsonNumber(samples_[i].total_s);
  }
  return json + "]";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
