#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>

#include "common.h"
#include "net/listener.h"
#include "util/string_util.h"

namespace perfbench {

struct LoadGenerator::Conn {
  int fd = -1;
  bool dead = false;
  std::string out;        // serialized requests not yet written
  size_t out_off = 0;
  std::string in;         // response bytes not yet parsed
  std::deque<size_t> inflight;  // sample indices, in send order

  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    dead = true;
    out.clear();
    out_off = 0;
    in.clear();
    inflight.clear();
  }
};

namespace {

double BodyNumber(const std::string& body, const char* key) {
  const size_t at = body.find(key);
  if (at == std::string::npos) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::strtod(body.c_str() + at + std::strlen(key), nullptr);
}

/// Writes what the socket accepts; false on a hard error.
bool Flush(int fd, std::string* out, size_t* off) {
  while (*off < out->size()) {
    const ssize_t n = ::send(fd, out->data() + *off, out->size() - *off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      *off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  out->clear();
  *off = 0;
  return true;
}

}  // namespace

std::string EstimateRequest(const std::string& body, bool sql) {
  std::string request = "POST /estimate HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  request += sql ? "Content-Type: application/sql\r\n"
                 : "Content-Type: text/plain\r\n";
  // The caller waits as long as the generator does (its grace), so the
  // server's 50 ms default deadline never sends an answer to a fallback
  // tier just because the box stalled.
  request += "X-Deadline-Ms: 10000\r\n";
  request += prestroid::StrFormat("Content-Length: %zu\r\n\r\n", body.size());
  request += body;
  return request;
}

LoadGenerator::LoadGenerator(uint16_t port, size_t connections,
                             const std::vector<std::string>* wire_requests)
    : port_(port), wire_(wire_requests) {
  for (size_t i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<Conn>());
    if (!Connect(conns_.back().get())) ok_ = false;
  }
}

bool LoadGenerator::Connect(Conn* conn) {
  conn->Close();
  auto fd = prestroid::net::ConnectTcp("127.0.0.1", port_);
  if (!fd.ok()) return false;
  conn->fd = *fd;
  conn->dead = false;
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(conn->fd, F_GETFL, 0);
  ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK);
  return true;
}

LoadGenerator::~LoadGenerator() = default;

void LoadGenerator::Prepare() {
  // Wake-ups within a few microseconds of the schedule, not the default
  // 50us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (auto& conn : conns_) {
    if (conn->dead || !conn->inflight.empty() || !conn->out.empty() ||
        !conn->in.empty()) {
      Connect(conn.get());
    }
  }
}

void LoadGenerator::Send(Conn* conn, size_t index, Pass* pass) {
  conn->out += (*wire_)[pass->samples[index].body];
  conn->inflight.push_back(index);
  ++pass->outstanding;
}

void LoadGenerator::Fail(Conn* conn, Pass* pass) {
  if (conn->dead) return;
  conn->dead = true;
  ++transport_errors_;
  pass->done += conn->inflight.size();
  pass->outstanding -= conn->inflight.size();
  conn->inflight.clear();
}

void LoadGenerator::Read(Conn* conn, Pass* pass) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (got > 0) {
      conn->in.append(buf, static_cast<size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    Fail(conn, pass);  // EOF or error with answers owed
    return;
  }
  const double now_ms = MsBetween(pass->start, Clock::now());
  std::string& in = conn->in;
  size_t consumed = 0;
  for (;;) {
    const size_t header_end = in.find("\r\n\r\n", consumed);
    if (header_end == std::string::npos) break;
    const size_t length_at = in.find("Content-Length: ", consumed);
    if (length_at == std::string::npos || length_at > header_end ||
        in.compare(consumed, 9, "HTTP/1.1 ") != 0) {
      Fail(conn, pass);
      return;
    }
    const size_t length = static_cast<size_t>(
        std::strtoull(in.c_str() + length_at + 16, nullptr, 10));
    const size_t body_at = header_end + 4;
    if (in.size() < body_at + length) break;
    if (conn->inflight.empty()) {
      Fail(conn, pass);
      return;
    }
    Sample& sample = pass->samples[conn->inflight.front()];
    conn->inflight.pop_front();
    --pass->outstanding;
    ++pass->done;
    sample.status = std::atoi(in.c_str() + consumed + 9);
    sample.done_ms = now_ms;
    const std::string body = in.substr(body_at, length);
    sample.cpu_minutes = BodyNumber(body, "\"cpu_minutes\": ");
    sample.runtime_ms = BodyNumber(body, "\"latency_ms\": ");
    sample.model_tier = body.find("\"tier\": \"model\"") != std::string::npos;
    sample.degraded = body.find("\"degraded\": true") != std::string::npos;
    consumed = body_at + length;
  }
  in.erase(0, consumed);
}

bool LoadGenerator::Exchange(Clock::time_point wake, Pass* pass) {
  for (auto& conn : conns_) {
    if (!conn->dead && !conn->out.empty() &&
        !Flush(conn->fd, &conn->out, &conn->out_off)) {
      Fail(conn.get(), pass);
    }
  }
  const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
      wake - Clock::now());
  struct timespec ts;
  ts.tv_sec = wait.count() > 0 ? wait.count() / 1000000000 : 0;
  ts.tv_nsec = wait.count() > 0 ? wait.count() % 1000000000 : 0;
  fds_.resize(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    fds_[i].fd = conns_[i]->dead ? -1 : conns_[i]->fd;
    fds_[i].events = static_cast<short>(
        POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT));
    fds_[i].revents = 0;
  }
  const int ready = ::ppoll(fds_.data(), fds_.size(), &ts, nullptr);
  if (ready < 0 && errno != EINTR) return false;
  for (size_t i = 0; ready > 0 && i < conns_.size(); ++i) {
    if (fds_[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      Read(conns_[i].get(), pass);
    }
  }
  return true;
}

std::vector<Sample> LoadGenerator::Run(const Schedule& schedule,
                                       double grace_s,
                                       size_t* backlog_at_end) {
  Prepare();
  const size_t n = schedule.offsets_s.size();
  Pass pass;
  pass.samples.resize(n);
  *backlog_at_end = 0;
  pass.start = Clock::now();
  auto at = [&](double s) {
    return pass.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
  };
  const Clock::time_point deadline =
      at((n == 0 ? 0.0 : schedule.offsets_s.back()) + grace_s);

  size_t next = 0;
  size_t round_robin = 0;
  while (pass.done < n) {
    const Clock::time_point now = Clock::now();
    while (next < n && at(schedule.offsets_s[next]) <= now) {
      // Least-outstanding connection, ties broken round robin.
      size_t best = round_robin % conns_.size();
      for (size_t k = 0; k < conns_.size(); ++k) {
        const size_t i = (round_robin + k) % conns_.size();
        if (conns_[best]->dead ||
            (!conns_[i]->dead &&
             conns_[i]->inflight.size() < conns_[best]->inflight.size())) {
          best = i;
        }
      }
      round_robin = best + 1;
      Sample& sample = pass.samples[next];
      sample.body = schedule.bodies[next];
      sample.intended_ms = 1e3 * schedule.offsets_s[next];
      sample.sent_ms = MsBetween(pass.start, now);
      if (conns_[best]->dead) {
        ++pass.done;  // no connection left to carry it: unanswered
      } else {
        Send(conns_[best].get(), next, &pass);
      }
      ++next;
      if (next == n) *backlog_at_end = pass.outstanding;
    }
    if (pass.done >= n || (next >= n && now >= deadline)) break;
    if (!Exchange(next < n ? at(schedule.offsets_s[next]) : deadline,
                  &pass)) {
      break;
    }
  }
  return std::move(pass.samples);
}

std::vector<Sample> LoadGenerator::RunWindow(
    size_t window, double duration_s, double grace_s,
    const std::function<uint32_t()>& next_body) {
  Prepare();
  Pass pass;
  pass.start = Clock::now();
  const Clock::time_point end =
      pass.start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(duration_s));
  const Clock::time_point deadline =
      end + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(grace_s));
  for (;;) {
    const Clock::time_point now = Clock::now();
    const bool sending = now < end;
    if (sending) {
      for (auto& conn : conns_) {
        while (!conn->dead && conn->inflight.size() < window) {
          Sample sample;
          sample.body = next_body();
          sample.intended_ms = MsBetween(pass.start, now);
          sample.sent_ms = sample.intended_ms;
          pass.samples.push_back(sample);
          Send(conn.get(), pass.samples.size() - 1, &pass);
        }
      }
    } else if (pass.outstanding == 0 || now >= deadline) {
      break;
    }
    if (!Exchange(sending ? end : deadline, &pass)) break;
  }
  return std::move(pass.samples);
}

}  // namespace perfbench
