#ifndef PRESTROID_NET_HTTP_SERVER_H_
#define PRESTROID_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/http.h"
#include "net/listener.h"
#include "util/status.h"

namespace prestroid::net {

/// Connection and request policy of the HTTP front end.
struct HttpServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via port() after Start().
  uint16_t port = 0;
  /// Hard cap on simultaneously open client connections. Connections over
  /// the cap are answered with a best-effort 503 and closed immediately —
  /// bounded state, visible shedding.
  size_t max_connections = 256;
  /// Per-request read limits (the HttpParser bounds). The CLI ties
  /// max_body_bytes to PlanLimits::max_plan_bytes so the wire can never
  /// deliver a plan the governor would not admit.
  size_t max_header_bytes = 16 << 10;
  size_t max_body_bytes = 64 << 20;
  /// A connection that has sent part of a request but not completed it
  /// within this window is answered 408 and closed (slowloris guard).
  size_t header_timeout_ms = 10000;
  /// A keep-alive connection with *no* partial request buffered that stays
  /// silent this long is closed without a response (idle reaping — distinct
  /// from the header-assembly guard above, and 408-free: there is nothing to
  /// answer). 0 disables idle reaping.
  size_t idle_timeout_ms = 60000;
  /// After a drain begins, in-flight work gets this long to finish before
  /// remaining connections are force-closed.
  size_t drain_timeout_ms = 5000;
};

/// Monotonic counters of the HTTP layer (exported at /metrics). The
/// `connections_active` field is a point-in-time gauge.
struct HttpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over max_connections, shed with 503
  uint64_t connections_aborted = 0;   // peer closed mid-request or I/O error
  uint64_t header_timeouts = 0;       // slowloris closes (408)
  uint64_t idle_closes = 0;           // keep-alive connections reaped silent
  uint64_t requests = 0;              // complete requests parsed
  uint64_t draining_rejects = 0;      // requests answered 503 during drain
  uint64_t forced_drain_closes = 0;   // connections cut at the drain deadline
  uint64_t completion_wakeups = 0;    // self-pipe writes made by Responders
  uint64_t completions_dropped = 0;   // deferred answers whose connection
                                      // was gone (client hung up, or Run()
                                      // had returned)
  std::map<int, uint64_t> responses_by_code;
  size_t connections_active = 0;      // gauge
};

struct CompletionQueue;

/// The right to answer one request after its handler has returned — the
/// /estimate handler hands it to the serving runtime's completion callback.
/// Copyable and thread-safe; complete each request at most once.
class Responder {
 public:
  /// Queues `finish` for the event loop and wakes it: the self-pipe is
  /// written only when the queue goes from empty to non-empty, so completions
  /// that land together (one served batch) cost one wakeup. The loop runs
  /// `finish` on its own thread and writes the response it returns if the
  /// request's connection is still open; otherwise the response is dropped.
  /// After Run() has returned, `finish` is dropped unrun.
  void Complete(std::function<HttpResponse()> finish) const;

 private:
  friend class HttpServer;
  Responder(std::shared_ptr<CompletionQueue> queue, uint64_t connection_id)
      : queue_(std::move(queue)), connection_id_(connection_id) {}

  std::shared_ptr<CompletionQueue> queue_;
  uint64_t connection_id_;
};

/// A handler's answer: the response to send now, or std::nullopt when the
/// handler kept the Responder and completes the request later.
using HandlerResult = std::optional<HttpResponse>;
using HttpHandler = std::function<HandlerResult(const HttpRequest& request,
                                                const Responder& responder)>;

/// Poll-based single-threaded HTTP/1.1 server.
///
/// One event-loop thread owns every connection: accept, read, parse,
/// dispatch, and write all happen on the thread that calls Run(). Handlers
/// therefore never need locks of their own; concurrency comes from deferred
/// responses — a handler that keeps its Responder (the /estimate path)
/// yields the loop while the serving runtime's batch workers do the heavy
/// lifting, so many connections progress while estimates are in flight and
/// concurrent requests micro-batch naturally inside the runtime.
///
/// Completions are event-driven: a Responder pushes onto a mutex-guarded
/// completion queue and writes the self-pipe on the queue's empty ->
/// non-empty edge; the loop swaps the queue out on each wakeup. No timer
/// sits on the request path — poll(2) times out only for the idle, header
/// and drain clocks (50 ms, 10 ms while draining). Connection ids are
/// monotonic, so a completion can never reach a later connection that
/// reused its fd.
///
/// Requests on one connection are answered strictly in order (HTTP/1.1
/// pipelining); a deferred response parks the connection's parser until it
/// completes. A client that resets the connection while its response is
/// deferred is closed at once; its completion is dropped when it arrives.
///
/// Graceful drain (SIGTERM/SIGINT via a SignalHandler fd, or RequestDrain()
/// from any thread): the listener closes, each connection's already-received
/// bytes get one final parse pass, every in-flight and already-parsed
/// request is served to completion, later requests are answered 503, and
/// Run() returns once every connection has flushed and closed — or after
/// drain_timeout_ms, force-closing stragglers. EINTR-safe throughout;
/// SIGPIPE must be ignored (SignalHandler::Install does this).
class HttpServer {
 public:
  explicit HttpServer(HttpServerConfig config = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for an exact (method, path) pair. Unknown paths get
  /// 404, known paths with a different method get 405. Register before
  /// Run().
  void Route(const std::string& method, const std::string& path,
             HttpHandler handler);

  /// Binds and listens (resolving an ephemeral port). Fails with
  /// kAlreadyExists when the address is taken.
  Status Start();

  /// The bound port; valid after Start().
  uint16_t port() const { return listener_.port(); }

  /// Runs the event loop on the calling thread until a drain completes.
  /// `drain_fd` (optional) is an external wakeup fd — readable means "begin
  /// graceful drain" (wire a SignalHandler's drain_fd here).
  Status Run(int drain_fd = -1);

  /// Thread-safe: asks the loop to begin a graceful drain (an atomic flag
  /// plus a self-pipe write, so the pipe carries drains and completions).
  void RequestDrain();

  /// Thread-safe counter snapshot.
  HttpServerStats StatsSnapshot() const;

  /// Milliseconds from drain request to loop exit; 0 before a drain
  /// completed. Valid after Run() returns.
  double drain_latency_ms() const { return drain_latency_ms_; }

  const HttpServerConfig& config() const { return config_; }

 private:
  struct Connection {
    uint64_t id = 0;  // monotonic, never reused: completions address it
    int fd = -1;
    std::string in;        // received, not yet parsed
    std::string out;       // serialized responses awaiting write
    size_t out_off = 0;
    bool awaiting = false;  // a Responder owes this connection a response
    bool awaiting_keep_alive = true;
    bool close_after_write = false;
    bool read_closed = false;  // peer sent EOF
    std::chrono::steady_clock::time_point last_activity;
  };

  struct Route_ {
    std::string method;
    std::string path;
    HttpHandler handler;
  };

  void BeginDrain();
  /// Reads everything currently available on `conn`; returns false when the
  /// connection died and was not kept for flushing.
  bool ReadAvailable(Connection& conn);
  /// Parses and dispatches requests from conn.in until a deferred response,
  /// an error, or exhaustion.
  void ProcessBuffered(Connection& conn);
  void Dispatch(Connection& conn, const HttpRequest& request);
  /// Takes every queued completion, runs its finish step, and enqueues the
  /// response on its connection — or drops it when the connection is gone.
  void DeliverCompletions();
  /// The open connection with `id`, or nullptr. conns_ stays sorted by id
  /// (appended in accept order, swept order-preserving).
  Connection* FindConnection(uint64_t id);
  void EnqueueResponse(Connection& conn, const HttpResponse& response,
                       bool keep_alive);
  /// Writes as much of conn.out as the socket accepts; returns false when
  /// the connection errored and must be closed.
  bool FlushWrites(Connection& conn);
  void CountResponse(int code);

  HttpServerConfig config_;
  TcpListener listener_;
  std::vector<Route_> routes_;
  std::vector<std::unique_ptr<Connection>> conns_;
  uint64_t next_connection_id_ = 1;

  // Completions from Responders, plus the self-pipe that wakes the loop for
  // them and for drains. Shared with every Responder, so a completion that
  // outlives the server still has a valid queue (and pipe) to land in.
  std::shared_ptr<CompletionQueue> completions_;
  std::atomic<bool> drain_requested_{false};

  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_;
  std::chrono::steady_clock::time_point drain_begin_;
  double drain_latency_ms_ = 0.0;

  mutable std::mutex stats_mu_;
  HttpServerStats stats_;
};

}  // namespace prestroid::net

#endif  // PRESTROID_NET_HTTP_SERVER_H_
