// Open-loop HTTP load generator: one thread, a few keep-alive connections,
// requests pipelined on a precomputed arrival schedule.
//
// Each request is due at its scheduled time whether or not earlier ones have
// been answered (open loop), so a slow server faces a growing queue instead
// of a slower client. Latency is taken from the *intended* send time, which
// charges a stall to every request it delays. The generator also records when
// it actually got to each request (send lag): a large lag means the
// generator, not the server, fell behind.
#ifndef PRESTROID_PERFBENCH_LOADGEN_H_
#define PRESTROID_PERFBENCH_LOADGEN_H_

#include <poll.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "util/random.h"

namespace perfbench {

/// One request's outcome. Times are ms from the phase start.
struct Sample {
  uint32_t body = 0;         // index into the request pool
  double intended_ms = 0.0;  // schedule
  double sent_ms = 0.0;      // when the generator enqueued it
  double done_ms = -1.0;     // when the whole response was read; <0 if never
  int status = 0;            // HTTP status; 0 = transport error / no answer
  bool model_tier = false;   // "tier": "model"
  bool degraded = false;
  double cpu_minutes = 0.0;
  double runtime_ms = 0.0;   // the response's own "latency_ms"

  bool answered() const { return done_ms >= 0.0 && status != 0; }
  double latency_ms() const { return done_ms - intended_ms; }
  double wire_ms() const { return done_ms - sent_ms; }
};

/// One phase's schedule: arrival offsets (seconds from the phase start) and
/// the pool index each arrival sends.
struct Schedule {
  std::vector<double> offsets_s;
  std::vector<uint32_t> bodies;
};

/// Poisson arrivals at `rate_per_s` for `duration_s`; bodies are drawn by
/// `pick(rng, i)`.
template <typename Pick>
Schedule PoissonSchedule(prestroid::Rng* rng, double rate_per_s,
                         double duration_s, Pick pick) {
  Schedule schedule;
  double t = 0.0;
  for (size_t i = 0;; ++i) {
    double u = rng->UniformDouble();
    if (u <= 0.0) u = 1e-12;
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) break;
    schedule.offsets_s.push_back(t);
    schedule.bodies.push_back(pick(rng, i));
  }
  return schedule;
}

/// Keep-alive connections to 127.0.0.1:port driven from the calling thread.
class LoadGenerator {
 public:
  /// `wire_requests[i]` is the complete serialized request for pool entry i.
  LoadGenerator(uint16_t port, size_t connections,
                const std::vector<std::string>* wire_requests);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// False when a connection could not be opened.
  bool ok() const { return ok_; }

  /// Sends `schedule` open loop and waits for every answer, or until
  /// `grace_s` after the last arrival. Returns one Sample per arrival; the
  /// count of requests still outstanding when the last one was sent is
  /// stored in *backlog_at_end. A connection left owing answers is replaced
  /// before the next run, so late answers never reach a later schedule.
  std::vector<Sample> Run(const Schedule& schedule, double grace_s,
                          size_t* backlog_at_end);

  /// Closed loop: keeps `window` requests outstanding on every connection
  /// for `duration_s`, sending the body `next_body()` picks as each answer
  /// arrives, then waits up to `grace_s` for the answers still owed. A
  /// request's intended time is its send time.
  std::vector<Sample> RunWindow(size_t window, double duration_s,
                                double grace_s,
                                const std::function<uint32_t()>& next_body);

  /// Transport errors (resets, malformed responses) over the generator's
  /// life.
  size_t transport_errors() const { return transport_errors_; }

 private:
  struct Conn;
  /// One run's samples and counters; times are from `start`.
  struct Pass {
    Clock::time_point start;
    std::vector<Sample> samples;
    size_t done = 0;         // answered, or lost with their connection
    size_t outstanding = 0;  // sent and not yet answered
  };

  /// Opens a fresh connection into `conn` (closing any old one).
  bool Connect(Conn* conn);
  /// Replaces every connection a previous run left owing answers, so late
  /// answers never reach a later run.
  void Prepare();
  /// Queues sample `index` of `pass` on `conn`.
  void Send(Conn* conn, size_t index, Pass* pass);
  /// Marks `conn` dead; the answers it owed are lost.
  void Fail(Conn* conn, Pass* pass);
  /// Reads what `conn` has and completes the samples it answers.
  void Read(Conn* conn, Pass* pass);
  /// Writes what the connections have queued, then waits for answers until
  /// `wake` and reads them. False on a poll error.
  bool Exchange(Clock::time_point wake, Pass* pass);

  uint16_t port_;
  const std::vector<std::string>* wire_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool ok_ = true;
  size_t transport_errors_ = 0;
  std::vector<struct pollfd> fds_;
};

/// Serializes POST /estimate for `body` with a 10 s deadline; `sql` selects
/// application/sql.
std::string EstimateRequest(const std::string& body, bool sql);

}  // namespace perfbench

#endif  // PRESTROID_PERFBENCH_LOADGEN_H_
