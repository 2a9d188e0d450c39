#include "net/http_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/wake_deferral.h"

namespace prestroid::net {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Drains a wakeup pipe so level-triggered poll stops reporting it readable.
void DrainPipe(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

}  // namespace

/// The loop-owned completion queue behind every Responder, and the self-pipe
/// that wakes the loop for completions and drain requests. Shared by the
/// server and its Responders: the last owner closes the pipe.
struct CompletionQueue {
  struct Entry {
    uint64_t connection_id;
    std::function<HttpResponse()> finish;
  };

  ~CompletionQueue() {
    if (wake_read_fd >= 0) ::close(wake_read_fd);
    if (wake_write_fd >= 0) ::close(wake_write_fd);
  }

  /// Makes the loop's next poll(2) return. EAGAIN means the pipe is full,
  /// i.e. a wakeup is already pending, so the result is ignored.
  void Wake() const {
    if (wake_write_fd < 0) return;
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = ::write(wake_write_fd, &byte, 1);
  }

  /// A Responder's wakeup: Wake(), counted in `wakeups`. Requires `mu`.
  void CountedWake() {
    ++wakeups;
    Wake();
  }

  // Set once by HttpServer::Start(), before any Responder exists.
  int wake_read_fd = -1;
  int wake_write_fd = -1;

  std::mutex mu;
  std::vector<Entry> entries;  // guarded by mu
  bool closed = false;         // guarded by mu: Run() has returned
  uint64_t wakeups = 0;        // guarded by mu
  uint64_t dropped = 0;        // guarded by mu: arrived after Run() returned
};

void Responder::Complete(std::function<HttpResponse()> finish) const {
  std::lock_guard<std::mutex> lock(queue_->mu);
  if (queue_->closed) {
    ++queue_->dropped;
    return;  // `finish` (and the state it owns) is released unrun
  }
  queue_->entries.push_back({connection_id_, std::move(finish)});
  // Only the empty -> non-empty edge owes the loop a wakeup: later
  // completions ride the one already on its way.
  if (queue_->entries.size() != 1) return;
  // Inside a served batch (ServingShard::Resolve) the edge's wake waits for
  // the batch's last callback, so one batch writes the pipe once even when
  // the loop swaps the queue out between two of its completions. Elsewhere
  // the edge wakes at once; writing under the lock keeps it exact against
  // the loop's swap.
  const bool deferred =
      WakeDeferral::Defer(queue_.get(), [queue = queue_] {
        std::lock_guard<std::mutex> wake_lock(queue->mu);
        queue->CountedWake();
      });
  if (!deferred) queue_->CountedWake();
}

HttpServer::HttpServer(HttpServerConfig config)
    : config_(std::move(config)),
      completions_(std::make_shared<CompletionQueue>()) {}

HttpServer::~HttpServer() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void HttpServer::Route(const std::string& method, const std::string& path,
                       HttpHandler handler) {
  routes_.push_back(Route_{method, path, std::move(handler)});
}

Status HttpServer::Start() {
  int fds[2];
  if (::pipe(fds) != 0) return Status::FromErrno("pipe", errno);
  completions_->wake_read_fd = fds[0];
  completions_->wake_write_fd = fds[1];
  PRESTROID_RETURN_NOT_OK(SetNonBlocking(fds[0]));
  PRESTROID_RETURN_NOT_OK(SetNonBlocking(fds[1]));
  return listener_.Listen(config_.host, config_.port);
}

void HttpServer::RequestDrain() {
  drain_requested_.store(true);
  completions_->Wake();
}

HttpServerStats HttpServer::StatsSnapshot() const {
  HttpServerStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats = stats_;
  }
  std::lock_guard<std::mutex> lock(completions_->mu);
  stats.completion_wakeups = completions_->wakeups;
  stats.completions_dropped += completions_->dropped;
  return stats;
}

void HttpServer::CountResponse(int code) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.responses_by_code[code];
}

void HttpServer::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  drain_begin_ = Clock::now();
  drain_deadline_ =
      drain_begin_ + std::chrono::milliseconds(config_.drain_timeout_ms);
  listener_.Close();
  // Final read pass: bytes the kernel already buffered for us belong to
  // requests sent before the drain — pull them in so they get served rather
  // than cut. Requests parsed after this pass are answered 503.
  for (auto& conn : conns_) {
    if (conn->fd >= 0 && !conn->read_closed) {
      if (!ReadAvailable(*conn)) {
        ::close(conn->fd);
        conn->fd = -1;
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.connections_aborted;
        --stats_.connections_active;
      }
    }
  }
}

bool HttpServer::ReadAvailable(Connection& conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      conn.last_activity = Clock::now();
      continue;
    }
    if (n == 0) {
      conn.read_closed = true;
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

void HttpServer::EnqueueResponse(Connection& conn,
                                 const HttpResponse& response,
                                 bool keep_alive) {
  const bool persist = keep_alive && !response.close;
  CountResponse(response.code);
  conn.out += SerializeResponse(response, persist);
  if (!persist) conn.close_after_write = true;
  // A response is activity too: the idle clock measures silence since the
  // last request *or* reply, not time spent computing a slow estimate.
  conn.last_activity = Clock::now();
}

void HttpServer::Dispatch(Connection& conn, const HttpRequest& request) {
  const Route_* match = nullptr;
  bool path_exists = false;
  for (const auto& route : routes_) {
    if (route.path != request.path) continue;
    path_exists = true;
    if (route.method == request.method) {
      match = &route;
      break;
    }
  }
  if (match == nullptr) {
    HttpResponse response =
        path_exists
            ? ErrorResponse(405, "method not allowed for " + request.path)
            : ErrorResponse(404, "no such endpoint: " + request.path);
    EnqueueResponse(conn, response, request.KeepAlive());
    return;
  }
  HandlerResult result =
      match->handler(request, Responder(completions_, conn.id));
  if (result) {
    EnqueueResponse(conn, *result, request.KeepAlive());
  } else {
    conn.awaiting = true;
    conn.awaiting_keep_alive = request.KeepAlive();
  }
}

HttpServer::Connection* HttpServer::FindConnection(uint64_t id) {
  auto it = std::lower_bound(
      conns_.begin(), conns_.end(), id,
      [](const std::unique_ptr<Connection>& conn, uint64_t key) {
        return conn->id < key;
      });
  if (it == conns_.end() || (*it)->id != id || (*it)->fd < 0) return nullptr;
  return it->get();
}

void HttpServer::DeliverCompletions() {
  std::vector<CompletionQueue::Entry> ready;
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    ready.swap(completions_->entries);
  }
  for (CompletionQueue::Entry& entry : ready) {
    // The finish step runs whether or not anyone still waits for the
    // response (it records latency and feeds labeled observations).
    const HttpResponse response = entry.finish();
    Connection* conn = FindConnection(entry.connection_id);
    if (conn == nullptr || !conn->awaiting) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.completions_dropped;
      continue;
    }
    conn->awaiting = false;
    EnqueueResponse(*conn, response, conn->awaiting_keep_alive);
  }
}

void HttpServer::ProcessBuffered(Connection& conn) {
  HttpParser parser(config_.max_header_bytes, config_.max_body_bytes);
  while (!conn.awaiting && !conn.close_after_write && !conn.in.empty()) {
    HttpRequest request;
    const HttpParser::ParseState state = parser.TryParse(&conn.in, &request);
    if (state == HttpParser::ParseState::kNeedMore) break;
    if (state == HttpParser::ParseState::kError) {
      // The byte stream may be unsynchronized after a protocol error; the
      // error response always closes.
      EnqueueResponse(conn,
                      ErrorResponse(parser.error_code(),
                                    parser.error_message()),
                      /*keep_alive=*/false);
      conn.in.clear();
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests;
    }
    conn.last_activity = Clock::now();
    if (draining_) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.draining_rejects;
      }
      EnqueueResponse(conn, ErrorResponse(503, "server is draining"),
                      /*keep_alive=*/false);
      break;
    }
    Dispatch(conn, request);
  }
}

bool HttpServer::FlushWrites(Connection& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // EPIPE/ECONNRESET: the peer is gone
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

Status HttpServer::Run(int drain_fd) {
  if (!listener_.listening()) {
    return Status::FailedPrecondition("HttpServer::Start must succeed first");
  }

  std::vector<struct pollfd> pollfds;
  // conn_slot[i] is the index into pollfds for conns_[i], or -1.
  std::vector<int> conn_slot;

  for (;;) {
    pollfds.clear();
    conn_slot.assign(conns_.size(), -1);

    pollfds.push_back({completions_->wake_read_fd, POLLIN, 0});
    const int external_slot = drain_fd >= 0 ? static_cast<int>(pollfds.size())
                                            : -1;
    if (drain_fd >= 0) pollfds.push_back({drain_fd, POLLIN, 0});
    const int listener_slot =
        listener_.listening() && conns_.size() < config_.max_connections + 8
            ? static_cast<int>(pollfds.size())
            : -1;
    if (listener_slot >= 0) pollfds.push_back({listener_.fd(), POLLIN, 0});

    for (size_t i = 0; i < conns_.size(); ++i) {
      Connection& conn = *conns_[i];
      if (conn.fd < 0) continue;
      short events = 0;
      if (!conn.awaiting && !conn.close_after_write && !conn.read_closed &&
          !draining_) {
        events |= POLLIN;
      }
      if (conn.out_off < conn.out.size()) events |= POLLOUT;
      conn_slot[i] = static_cast<int>(pollfds.size());
      pollfds.push_back({conn.fd, events, 0});
    }

    // Deferred responses arrive through the self-pipe, so the timeout only
    // serves the header/idle clocks and the drain deadline.
    const int timeout_ms = draining_ ? 10 : 50;
    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()), timeout_ms);
    if (ready < 0 && errno != EINTR && errno != EAGAIN) {
      return Status::FromErrno("poll", errno);
    }

    const Clock::time_point now = Clock::now();

    // Self-pipe wakeups: completions and RequestDrain(). The pipe is read
    // BEFORE the queue is swapped out, so a completion racing this read
    // either lands in the swap below or leaves the pipe readable again.
    if (pollfds[0].revents & POLLIN) DrainPipe(completions_->wake_read_fd);
    if (drain_requested_.load()) BeginDrain();
    // External drain fd (SignalHandler), or EINTR from a signal delivery
    // that raced its pipe write.
    if (external_slot >= 0 && (pollfds[external_slot].revents & POLLIN)) {
      DrainPipe(drain_fd);
      BeginDrain();
    }
    DeliverCompletions();

    // Accept everything queued on the listener.
    if (!draining_ && listener_slot >= 0 &&
        (pollfds[listener_slot].revents & POLLIN)) {
      for (;;) {
        Result<int> client = listener_.Accept();
        if (!client.ok()) break;  // kResourceExhausted: queue empty
        if (conns_.size() >= config_.max_connections) {
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.connections_rejected;
          }
          // Best-effort shed: tell the client why before hanging up.
          const std::string wire = SerializeResponse(
              ErrorResponse(503, "connection limit reached"),
              /*keep_alive=*/false);
          [[maybe_unused]] ssize_t ignored =
              ::send(*client, wire.data(), wire.size(), MSG_NOSIGNAL);
          CountResponse(503);
          ::close(*client);
          continue;
        }
        auto conn = std::make_unique<Connection>();
        conn->id = next_connection_id_++;
        conn->fd = *client;
        conn->last_activity = now;
        conns_.push_back(std::move(conn));
        conn_slot.push_back(-1);
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.connections_accepted;
        ++stats_.connections_active;
      }
    }

    // Per-connection work: read, parse, write, close.
    for (size_t i = 0; i < conns_.size(); ++i) {
      Connection& conn = *conns_[i];
      if (conn.fd < 0) continue;
      const short revents =
          conn_slot[i] >= 0 ? pollfds[conn_slot[i]].revents : 0;

      auto abort_conn = [&]() {
        ::close(conn.fd);
        conn.fd = -1;
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.connections_aborted;
        --stats_.connections_active;
      };
      // `idle` counts the close as an idle reap in the same locked section
      // that drops connections_active, so no StatsSnapshot sees one without
      // the other.
      auto close_conn = [&](bool idle = false) {
        ::close(conn.fd);
        conn.fd = -1;
        std::lock_guard<std::mutex> lock(stats_mu_);
        if (idle) ++stats_.idle_closes;
        --stats_.connections_active;
      };

      if ((revents & (POLLIN | POLLHUP | POLLERR)) && !conn.read_closed &&
          !conn.awaiting && !draining_) {
        if (!ReadAvailable(conn)) {
          abort_conn();
          continue;
        }
      } else if (conn.awaiting && (revents & (POLLHUP | POLLERR))) {
        // Reset or fully closed while its response is deferred: nobody can
        // read the answer. Close now (a level-triggered POLLHUP would
        // otherwise spin the loop); the completion is dropped on arrival.
        abort_conn();
        continue;
      }

      if (!conn.awaiting) ProcessBuffered(conn);

      if (conn.out_off < conn.out.size() && !FlushWrites(conn)) {
        abort_conn();
        continue;
      }

      const bool response_done = conn.out_off >= conn.out.size();
      if (response_done && !conn.awaiting) {
        if (conn.close_after_write) {
          close_conn();
        } else if (conn.read_closed) {
          // Peer EOF with nothing owed. Leftover bytes were a partial
          // request the client abandoned.
          if (conn.in.empty()) {
            close_conn();
          } else {
            abort_conn();
          }
        } else if (draining_) {
          close_conn();
        } else if (!conn.in.empty() &&
                   MsBetween(conn.last_activity, now) >
                       static_cast<double>(config_.header_timeout_ms)) {
          // Slowloris guard: a request has been partially sent for too long.
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.header_timeouts;
          }
          EnqueueResponse(conn, ErrorResponse(408, "request timed out"),
                          /*keep_alive=*/false);
        } else if (conn.in.empty() && config_.idle_timeout_ms > 0 &&
                   MsBetween(conn.last_activity, now) >
                       static_cast<double>(config_.idle_timeout_ms)) {
          // Idle keep-alive reaping: nothing is buffered and nothing is
          // owed, so close silently — a 408 here would desynchronize a
          // client that is about to send its next request.
          close_conn(/*idle=*/true);
          continue;
        }
      }
    }

    // Sweep closed connections.
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Connection>& c) {
                                  return c->fd < 0;
                                }),
                 conns_.end());

    if (draining_) {
      if (conns_.empty()) break;
      if (now >= drain_deadline_) {
        for (auto& conn : conns_) {
          ::close(conn->fd);
          conn->fd = -1;
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.forced_drain_closes;
          --stats_.connections_active;
        }
        conns_.clear();
        break;
      }
    }
  }

  // Nothing reads the queue from here on: completions still queued, and any
  // that arrive later (e.g. while the runtime shuts down), are dropped.
  std::vector<CompletionQueue::Entry> undelivered;
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    completions_->closed = true;
    completions_->dropped += completions_->entries.size();
    undelivered.swap(completions_->entries);
  }

  drain_latency_ms_ = MsBetween(drain_begin_, Clock::now());
  return Status::OK();
}

}  // namespace prestroid::net
