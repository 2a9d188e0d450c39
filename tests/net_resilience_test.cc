/// Tests for the network chaos layer and the resilient estimate client
/// (DESIGN.md §5.10):
///   - the fault-socket shim itself: every injected fault mode observable
///     over a real loopback connection (refusal, mid-stream RST, short
///     write, partial read, byte-level delay, truncated response);
///   - chunked request bodies: decode, split feeds, CL+TE smuggling (400),
///     malformed sizes (400), decoded-size cap (413), trailers ignored;
///   - Retry-After on 429/503 error responses;
///   - the CircuitBreaker state machine, driven by explicit time points;
///   - the EstimateClient retry matrix: transport errors retried with
///     backoff, X-Deadline-Ms shrinking across attempts, Retry-After
///     honored, labeled posts never retried after a write without an
///     idempotency key, breaker open/half-open/close over the wire;
///   - keep-alive idle timeout: 408-free silent close, separate from the
///     header-assembly guard, counted in /metrics;
///   - zero duplicate ObserveLabeled deliveries under retry storms
///     (X-Idempotency-Key dedup at delivery time).
///
/// Fault arming and every faulted client call happen on the test's main
/// thread; server loops never consult the injector — keeps the
/// deliberately lock-free FaultInjector TSan-clean.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cost/serving_estimator.h"
#include "net/estimate_service.h"
#include "net/fault_socket.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/resilient_client.h"
#include "plan/plan_text.h"
#include "serve/sharded_runtime.h"
#include "util/fault_injection.h"
#include "workload/trace.h"

namespace prestroid::net {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

template <typename Predicate>
bool WaitFor(Predicate predicate, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; ++waited) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

/// A bare HttpServer (no serving runtime) with caller-supplied routes, for
/// shim and client tests that do not need estimates.
class MiniServer {
 public:
  explicit MiniServer(HttpServerConfig config = {},
                      std::function<void(HttpServer*)> configure = {}) {
    config.host = "127.0.0.1";
    config.port = 0;
    server_ = std::make_unique<HttpServer>(config);
    server_->Route("GET", "/ping",
                   [](const HttpRequest&, const Responder&) -> HandlerResult {
                     HttpResponse response;
                     response.body = "pong";
                     return response;
                   });
    if (configure) configure(server_.get());
    EXPECT_TRUE(server_->Start().ok());
    loop_ = std::thread([this]() { run_status_ = server_->Run(); });
  }

  ~MiniServer() {
    if (loop_.joinable()) {
      server_->RequestDrain();
      loop_.join();
    }
  }

  uint16_t port() const { return server_->port(); }
  HttpServer& server() { return *server_; }
  HttpClient Client() { return HttpClient("127.0.0.1", port()); }

 private:
  std::unique_ptr<HttpServer> server_;
  std::thread loop_;
  Status run_status_;
};

/// Fast policies so failure paths resolve in milliseconds.
RetryPolicy FastPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 1.0;
  policy.max_backoff_ms = 5.0;
  policy.attempt_timeout_ms = 2000.0;
  policy.deadline_budget_ms = 10000.0;
  policy.jitter_seed = 42;
  return policy;
}

// --------------------------------------------------------------------------
// Fault-socket shim: every mode observable over real loopback
// --------------------------------------------------------------------------

TEST(FaultSocketTest, ConnectRefusalNeverDials) {
  ScopedNetFaults faults;
  MiniServer ts;
  FaultInjector::Global().ArmFailure(FaultSite::kNetConnect);
  HttpClient client = ts.Client();
  auto refused = client.Get("/ping");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(ts.server().StatsSnapshot().connections_accepted, 0u);
  // Single-shot fault: the next dial goes through.
  auto ok = client.Get("/ping");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->code, 200);
}

TEST(FaultSocketTest, MidStreamResetObservedByServerAsAbort) {
  ScopedNetFaults faults;
  MiniServer ts;
  HttpClient client = ts.Client();
  // Let the connection establish with one good request first.
  ASSERT_TRUE(client.Get("/ping").ok());
  FaultInjector::Global().ArmFailure(FaultSite::kNetSend);  // mode: kReset
  auto reset = client.Get("/ping");
  ASSERT_FALSE(reset.ok());
  EXPECT_EQ(reset.status().code(), StatusCode::kUnavailable);
  // The shim armed SO_LINGER{0}; HttpClient's Close() RSTs the server.
  EXPECT_TRUE(WaitFor([&] {
    return ts.server().StatsSnapshot().connections_aborted >= 1u;
  }));
}

TEST(FaultSocketTest, ShortWritesAreReassembledByTheServer) {
  ScopedNetFaults faults;
  MiniServer ts;
  NetFaultOptions options;
  options.send_mode = NetFaultMode::kShortWrite;
  options.short_write_bytes = 3;
  SetNetFaultOptions(options);
  // Every send clamped to 3 bytes: the client's send loop must iterate and
  // the server must reassemble the trickled request.
  FaultInjector::Global().ArmFailure(FaultSite::kNetSend, 0, /*repeat=*/true);
  HttpClient client = ts.Client();
  auto response = client.Get("/ping");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 200);
  EXPECT_EQ(response->body, "pong");
  EXPECT_GT(FaultInjector::Global().hits(FaultSite::kNetSend), 1u);
}

TEST(FaultSocketTest, PartialReadsAreReassembledByTheClient) {
  ScopedNetFaults faults;
  MiniServer ts;
  NetFaultOptions options;
  options.recv_mode = NetFaultMode::kPartialRead;
  options.partial_read_bytes = 1;
  SetNetFaultOptions(options);
  FaultInjector::Global().ArmFailure(FaultSite::kNetRecv, 0, /*repeat=*/true);
  HttpClient client = ts.Client();
  auto response = client.Get("/ping");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "pong");
  // The whole response arrived one byte per recv.
  EXPECT_GT(FaultInjector::Global().hits(FaultSite::kNetRecv), 10u);
}

TEST(FaultSocketTest, ByteLevelDelayStallsTheResponse) {
  ScopedNetFaults faults;
  MiniServer ts;
  NetFaultOptions options;
  options.recv_mode = NetFaultMode::kDelay;
  options.delay_us = 30000;
  SetNetFaultOptions(options);
  FaultInjector::Global().ArmFailure(FaultSite::kNetRecv);
  HttpClient client = ts.Client();
  const Clock::time_point start = Clock::now();
  auto response = client.Get("/ping");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GE(ElapsedMs(start), 25.0);
}

TEST(FaultSocketTest, TruncatedResponseLooksLikeServerEof) {
  ScopedNetFaults faults;
  MiniServer ts;
  NetFaultOptions options;
  options.recv_mode = NetFaultMode::kTruncate;
  SetNetFaultOptions(options);
  FaultInjector::Global().ArmFailure(FaultSite::kNetRecv);
  HttpClient client = ts.Client();
  auto truncated = client.Get("/ping");
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kUnavailable);
}

// --------------------------------------------------------------------------
// Chunked request bodies
// --------------------------------------------------------------------------

HttpParser DefaultParser() { return HttpParser(16 << 10, 1 << 20); }

TEST(ChunkedParserTest, DecodesAcrossSplitFeeds) {
  HttpParser parser = DefaultParser();
  const std::string wire =
      "POST /e HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n"
      "4\r\nwx\r\n\r\n3;ext=1\r\nyz!\r\n0\r\nX-Trailer: ignored\r\n\r\n";
  HttpRequest request;
  // Feed one byte at a time: every prefix must be kNeedMore, never an error,
  // and the buffer must stay untouched until the body completes.
  std::string buffer;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    buffer.push_back(wire[i]);
    const size_t before = buffer.size();
    ASSERT_EQ(parser.TryParse(&buffer, &request),
              HttpParser::ParseState::kNeedMore)
        << "at byte " << i;
    ASSERT_EQ(buffer.size(), before);
  }
  buffer.push_back(wire.back());
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_EQ(request.body, "wx\r\nyz!");  // chunk data may contain CRLF
  EXPECT_TRUE(buffer.empty());
}

TEST(ChunkedParserTest, ContentLengthPlusChunkedRejected400) {
  HttpParser parser = DefaultParser();
  std::string buffer =
      "POST /e HTTP/1.1\r\nContent-Length: 3\r\n"
      "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 400);
}

TEST(ChunkedParserTest, MalformedChunkSizeRejected400) {
  HttpParser parser = DefaultParser();
  std::string buffer =
      "POST /e HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 400);
}

TEST(ChunkedParserTest, MissingChunkTerminatorRejected400) {
  HttpParser parser = DefaultParser();
  std::string buffer =
      "POST /e HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 400);
}

TEST(ChunkedParserTest, DecodedBodyOverCapRejected413) {
  HttpParser parser(16 << 10, /*max_body_bytes=*/8);
  // One 9-byte chunk against an 8-byte cap: rejected from the size line
  // alone, before the data arrives.
  std::string buffer =
      "POST /e HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n9\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 413);
}

TEST(ChunkedParserTest, HugeHexSizeRejectedWithoutOverflow) {
  HttpParser parser = DefaultParser();
  std::string buffer =
      "POST /e HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "ffffffffffffffffff\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 400);
}

TEST(RetryAfterTest, AttachedTo429And503ButNot400) {
  const HttpResponse shed = ErrorResponse(429, "shed");
  const HttpResponse down = ErrorResponse(503, "down");
  const HttpResponse bad = ErrorResponse(400, "bad");
  auto has_retry_after = [](const HttpResponse& response) {
    for (const auto& [name, value] : response.extra_headers) {
      if (name == "Retry-After") return true;
    }
    return false;
  };
  EXPECT_TRUE(has_retry_after(shed));
  EXPECT_TRUE(has_retry_after(down));
  EXPECT_FALSE(has_retry_after(bad));
}

// --------------------------------------------------------------------------
// CircuitBreaker state machine (explicit clock, no sockets)
// --------------------------------------------------------------------------

TEST(CircuitBreakerTest, OpensHalfOpensAndCloses) {
  CircuitBreakerConfig config;
  config.window = 8;
  config.min_samples = 4;
  config.failure_threshold = 0.5;
  config.open_cooldown_ms = 100.0;
  CircuitBreaker breaker(config);
  Clock::time_point now = Clock::now();

  // Below min_samples nothing trips, even at 100% failure.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow(now));
    breaker.OnFailure(now);
  }
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  breaker.OnFailure(now);  // 4th failure: rate 1.0 over min_samples
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.counters().opens, 1u);

  // Open: reject until the cooldown elapses.
  EXPECT_FALSE(breaker.Allow(now));
  EXPECT_FALSE(breaker.Allow(now + std::chrono::milliseconds(50)));
  EXPECT_EQ(breaker.counters().short_circuits, 2u);

  // Cooldown elapsed: half-open, one probe allowed, a second rejected.
  now += std::chrono::milliseconds(150);
  EXPECT_TRUE(breaker.Allow(now));
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  EXPECT_EQ(breaker.counters().half_opens, 1u);
  EXPECT_FALSE(breaker.Allow(now));

  // Probe succeeds: closed, window cleared (old failures forgotten).
  breaker.OnSuccess(now);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  EXPECT_EQ(breaker.counters().closes, 1u);
  EXPECT_EQ(breaker.window_samples(), 0u);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  CircuitBreakerConfig config;
  config.window = 4;
  config.min_samples = 2;
  config.failure_threshold = 0.5;
  config.open_cooldown_ms = 10.0;
  CircuitBreaker breaker(config);
  Clock::time_point now = Clock::now();
  breaker.OnFailure(now);
  EXPECT_TRUE(breaker.Allow(now));
  breaker.OnFailure(now);
  ASSERT_EQ(breaker.state(), CircuitState::kOpen);

  now += std::chrono::milliseconds(20);
  EXPECT_TRUE(breaker.Allow(now));  // half-open probe
  breaker.OnFailure(now);           // probe fails
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.counters().opens, 2u);
  EXPECT_FALSE(breaker.Allow(now));  // new cooldown in force
}

// --------------------------------------------------------------------------
// EstimateClient retry matrix over the wire
// --------------------------------------------------------------------------

/// Routes /estimate to a scripted handler: the first `failures_first`
/// requests get `failure_code`, later ones a canned 200 estimate. Records
/// the X-Deadline-Ms header of every request.
struct ScriptedEstimate {
  explicit ScriptedEstimate(int failures_first, int failure_code = 503,
                            bool with_retry_after_zero = false)
      : failures_first(failures_first),
        failure_code(failure_code),
        with_retry_after_zero(with_retry_after_zero) {}

  void Register(HttpServer* server) {
    server->Route("POST", "/estimate",
                  [this](const HttpRequest& request,
                         const Responder&) -> HandlerResult {
                    std::lock_guard<std::mutex> lock(mu);
                    if (const std::string* header =
                            request.FindHeader("x-deadline-ms")) {
                      deadlines.push_back(std::stod(*header));
                    }
                    ++requests;
                    if (requests <= failures_first) {
                      HttpResponse failure;
                      failure.code = failure_code;
                      failure.body = "{\"error\": \"scripted failure\"}";
                      if (with_retry_after_zero) {
                        failure.extra_headers.emplace_back("Retry-After", "0");
                      }
                      return failure;
                    }
                    HttpResponse ok;
                    ok.content_type = "application/json";
                    ok.body =
                        "{\"cpu_minutes\": 1.5, \"tier\": \"model\", "
                        "\"degraded\": false, \"latency_ms\": 0.1}";
                    return ok;
                  });
  }

  std::mutex mu;
  int requests = 0;
  int failures_first;
  int failure_code;
  bool with_retry_after_zero;
  std::vector<double> deadlines;
};

TEST(EstimateClientTest, RetriesConnectRefusalThenSucceeds) {
  ScopedNetFaults faults;
  ScriptedEstimate script(0);
  MiniServer ts({}, [&](HttpServer* s) { script.Register(s); });
  EstimateClient client("127.0.0.1", ts.port(), FastPolicy());
  FaultInjector::Global().ArmFailure(FaultSite::kNetConnect);

  EstimateRequest request;
  request.body = "plan";
  auto reply = client.Estimate(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->code, 200);
  EXPECT_DOUBLE_EQ(reply->cpu_minutes, 1.5);
  EXPECT_EQ(reply->tier, "model");
  EXPECT_EQ(reply->attempts, 2u);
  const EstimateClientStats stats = client.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.transport_errors, 1u);
  EXPECT_EQ(stats.successes, 1u);
}

TEST(EstimateClientTest, DeadlineHeaderShrinksAcrossRetries) {
  ScriptedEstimate script(2);  // two 503s, then 200
  MiniServer ts({}, [&](HttpServer* s) { script.Register(s); });
  RetryPolicy policy = FastPolicy();
  policy.initial_backoff_ms = 5.0;
  policy.deadline_budget_ms = 5000.0;
  EstimateClient client("127.0.0.1", ts.port(), policy);

  EstimateRequest request;
  request.body = "plan";
  auto reply = client.Estimate(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->attempts, 3u);

  std::lock_guard<std::mutex> lock(script.mu);
  ASSERT_EQ(script.deadlines.size(), 3u);
  // The advertised deadline is the *remaining* budget: strictly shrinking
  // and never above the total.
  EXPECT_LE(script.deadlines[0], policy.deadline_budget_ms);
  EXPECT_LT(script.deadlines[1], script.deadlines[0]);
  EXPECT_LT(script.deadlines[2], script.deadlines[1]);
  EXPECT_EQ(client.stats().retryable_statuses, 2u);
}

TEST(EstimateClientTest, HonorsRetryAfterHint) {
  ScriptedEstimate script(1, 503, /*with_retry_after_zero=*/true);
  MiniServer ts({}, [&](HttpServer* s) { script.Register(s); });
  EstimateClient client("127.0.0.1", ts.port(), FastPolicy());
  EstimateRequest request;
  request.body = "plan";
  auto reply = client.Estimate(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(client.stats().retry_after_honored, 1u);
}

TEST(EstimateClientTest, DeadlineBudgetExhaustionStopsRetrying) {
  ScopedNetFaults faults;
  MiniServer ts;  // no /estimate route needed: connects never succeed
  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 100;
  policy.initial_backoff_ms = 20.0;
  policy.max_backoff_ms = 20.0;
  policy.deadline_budget_ms = 60.0;
  EstimateClient client("127.0.0.1", ts.port(), policy);
  FaultInjector::Global().ArmFailure(FaultSite::kNetConnect, 0,
                                     /*repeat=*/true);
  EstimateRequest request;
  request.body = "plan";
  const Clock::time_point start = Clock::now();
  auto reply = client.Estimate(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(reply.status().message().find("deadline budget"),
            std::string::npos)
      << reply.status().ToString();
  // Gave up near the budget, nowhere near 100 attempts worth of sleeps.
  EXPECT_LT(ElapsedMs(start), 1000.0);
  EXPECT_EQ(client.stats().deadline_exhausted, 1u);
  EXPECT_LT(client.stats().attempts, 50u);
}

TEST(EstimateClientTest, LabeledPostWithoutKeyNotRetriedAfterWrite) {
  ScopedNetFaults faults;
  ScriptedEstimate script(0);
  MiniServer ts({}, [&](HttpServer* s) { script.Register(s); });
  EstimateClient client("127.0.0.1", ts.port(), FastPolicy());
  // Every response truncated: the failure always happens after the request
  // bytes hit the wire.
  NetFaultOptions options;
  options.recv_mode = NetFaultMode::kTruncate;
  SetNetFaultOptions(options);
  FaultInjector::Global().ArmFailure(FaultSite::kNetRecv, 0, /*repeat=*/true);

  EstimateRequest labeled;
  labeled.body = "plan";
  labeled.actual_cpu_minutes = 3.0;  // no idempotency key
  auto reply = client.Estimate(labeled);
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("idempotency"), std::string::npos)
      << reply.status().ToString();
  const EstimateClientStats stats = client.stats();
  EXPECT_EQ(stats.attempts, 1u);  // no second attempt
  EXPECT_EQ(stats.non_idempotent_aborts, 1u);

  // The same post WITH a key retries freely.
  EstimateRequest keyed = labeled;
  keyed.idempotency_key = "obs-1";
  auto retried = client.Estimate(keyed);
  ASSERT_FALSE(retried.ok());  // still truncating, but it kept trying
  EXPECT_EQ(client.stats().attempts, 1u + FastPolicy().max_attempts);
}

TEST(EstimateClientTest, LabeledConnectRefusalIsSafeToRetry) {
  ScopedNetFaults faults;
  ScriptedEstimate script(0);
  MiniServer ts({}, [&](HttpServer* s) { script.Register(s); });
  EstimateClient client("127.0.0.1", ts.port(), FastPolicy());
  FaultInjector::Global().ArmFailure(FaultSite::kNetConnect);
  EstimateRequest labeled;
  labeled.body = "plan";
  labeled.actual_cpu_minutes = 3.0;  // no key — but refusal wrote no bytes
  auto reply = client.Estimate(labeled);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->attempts, 2u);
  EXPECT_EQ(client.stats().non_idempotent_aborts, 0u);
}

TEST(EstimateClientTest, BreakerOpensShortCircuitsAndRecoversOverTheWire) {
  ScopedNetFaults faults;
  ScriptedEstimate script(0);
  MiniServer ts({}, [&](HttpServer* s) { script.Register(s); });
  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 1;  // one attempt per request: failures accumulate
  CircuitBreakerConfig breaker;
  breaker.window = 8;
  breaker.min_samples = 2;
  breaker.failure_threshold = 0.5;
  breaker.open_cooldown_ms = 50.0;
  EstimateClient client("127.0.0.1", ts.port(), policy, breaker);
  FaultInjector::Global().ArmFailure(FaultSite::kNetConnect, 0,
                                     /*repeat=*/true);

  EstimateRequest request;
  request.body = "plan";
  ASSERT_FALSE(client.Estimate(request).ok());
  ASSERT_FALSE(client.Estimate(request).ok());
  EXPECT_EQ(client.breaker_state(), CircuitState::kOpen);

  // Short-circuited: no new attempt reaches the wire.
  const uint64_t attempts_before = client.stats().attempts;
  auto rejected = client.Estimate(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("circuit breaker"),
            std::string::npos);
  EXPECT_EQ(client.stats().attempts, attempts_before);
  EXPECT_GE(client.stats().breaker.short_circuits, 1u);

  // Fault cleared + cooldown elapsed: the half-open probe closes it.
  FaultInjector::Global().Reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  auto recovered = client.Estimate(request);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(client.breaker_state(), CircuitState::kClosed);
  const EstimateClientStats stats = client.stats();
  EXPECT_GE(stats.breaker.opens, 1u);
  EXPECT_EQ(stats.breaker.half_opens, 1u);
  EXPECT_EQ(stats.breaker.closes, 1u);
}

// --------------------------------------------------------------------------
// Keep-alive idle timeout
// --------------------------------------------------------------------------

TEST(IdleTimeoutTest, SilentlyReapsIdleKeepAliveConnections) {
  HttpServerConfig config;
  config.idle_timeout_ms = 60;
  config.header_timeout_ms = 10000;
  MiniServer ts(config);
  HttpClient client = ts.Client();
  ASSERT_TRUE(client.Get("/ping").ok());
  ASSERT_EQ(ts.server().StatsSnapshot().connections_active, 1u);
  // Stay silent past the idle window: the server reaps the connection
  // without writing a byte (no 408 — that would desynchronize a client
  // about to send its next request).
  EXPECT_TRUE(WaitFor(
      [&] { return ts.server().StatsSnapshot().idle_closes == 1u; }));
  const HttpServerStats stats = ts.server().StatsSnapshot();
  EXPECT_EQ(stats.header_timeouts, 0u);
  EXPECT_EQ(stats.connections_active, 0u);
  EXPECT_EQ(stats.responses_by_code.count(408), 0u);
  // The client sees a clean EOF on its next read, not an error response.
  auto next = client.ReadResponse();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kUnavailable);
}

TEST(IdleTimeoutTest, DoesNotPreemptTheHeaderAssemblyGuard) {
  HttpServerConfig config;
  config.idle_timeout_ms = 50;
  config.header_timeout_ms = 300;
  MiniServer ts(config);
  HttpClient client = ts.Client();
  // A *partial* request is governed by the header guard (408), never the
  // idle reaper — even though the idle window is much shorter.
  ASSERT_TRUE(client.SendRaw("GET /ping HTTP/1.1\r\nX-Slow:").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(ts.server().StatsSnapshot().idle_closes, 0u);
  EXPECT_TRUE(WaitFor(
      [&] { return ts.server().StatsSnapshot().header_timeouts == 1u; }));
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, 408);
  EXPECT_EQ(ts.server().StatsSnapshot().idle_closes, 0u);
}

// --------------------------------------------------------------------------
// Full estimate stack: labeled-observation dedup under retry storms
// --------------------------------------------------------------------------

class ResilienceStackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 8;
    schema_config.num_days = 8;
    schema_config.seed = 51;
    workload::GeneratedSchema schema = workload::GenerateSchema(schema_config);
    workload::TraceConfig trace_config;
    trace_config.num_queries = 20;
    trace_config.num_days = 8;
    trace_config.seed = 52;
    records_ = new std::vector<workload::QueryRecord>(
        workload::GenerateGrabTrace(schema, trace_config).ValueOrDie());
    plan_text_ = new std::string(plan::PlanToText(*(*records_)[0].plan));
  }
  static void TearDownTestSuite() {
    delete records_;
    delete plan_text_;
  }

  static std::vector<workload::QueryRecord>* records_;
  static std::string* plan_text_;
};

std::vector<workload::QueryRecord>* ResilienceStackTest::records_ = nullptr;
std::string* ResilienceStackTest::plan_text_ = nullptr;

/// Full in-process stack (fallback tiers only) with a delivery-counting
/// labeled hook, mirroring net_test's TestServer teardown order.
class CountingStack {
 public:
  explicit CountingStack(const std::vector<workload::QueryRecord>& records,
                         HttpServerConfig server_config = {}) {
    cost::ServingLimits limits;
    limits.default_deadline_ms = 50.0;
    estimator_ = std::make_unique<cost::ServingEstimator>(limits);
    EXPECT_TRUE(estimator_->FitFallbacks(records).ok());
    std::vector<cost::ServingEstimator*> raw = {estimator_.get()};
    serve::ShardedRuntimeConfig runtime_config;
    runtime_config.shards = 1;
    runtime_ = std::make_unique<serve::ShardedServingRuntime>(raw,
                                                              runtime_config);
    EXPECT_TRUE(runtime_->Start().ok());

    server_config.host = "127.0.0.1";
    server_config.port = 0;
    server_ = std::make_unique<HttpServer>(server_config);
    EXPECT_TRUE(server_->Start().ok());
    service_ = std::make_unique<EstimateService>(runtime_.get());
    service_->SetLabeledObservationHook(
        [this](plan::PlanNodePtr, const cost::ServingEstimate&,
               double actual) {
          std::lock_guard<std::mutex> lock(mu_);
          ++deliveries_[actual];
        });
    service_->RegisterRoutes(server_.get());
    loop_ = std::thread([this]() { run_status_ = server_->Run(); });
  }

  ~CountingStack() {
    if (loop_.joinable()) {
      server_->RequestDrain();
      loop_.join();
      runtime_->Shutdown();
      service_->Shutdown();
    }
  }

  uint16_t port() const { return server_->port(); }
  HttpServer& server() { return *server_; }
  EstimateService& service() { return *service_; }

  std::map<double, int> Deliveries() {
    std::lock_guard<std::mutex> lock(mu_);
    return deliveries_;
  }

 private:
  std::unique_ptr<cost::ServingEstimator> estimator_;
  std::unique_ptr<serve::ShardedServingRuntime> runtime_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<EstimateService> service_;
  std::thread loop_;
  Status run_status_;
  std::mutex mu_;
  std::map<double, int> deliveries_;
};

TEST_F(ResilienceStackTest, DuplicateKeyedLabelDeliveredExactlyOnce) {
  CountingStack stack(*records_);
  HttpClient client("127.0.0.1", stack.port());
  const std::vector<std::pair<std::string, std::string>> headers = {
      {"X-Actual-Cpu-Minutes", "7.25"},
      {"X-Idempotency-Key", "storm-1"},
  };
  // Two identical labeled posts (a client retry after a lost response):
  // both answered 200, label delivered once.
  for (int i = 0; i < 2; ++i) {
    auto response = client.Post("/estimate", *plan_text_, headers);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, 200);
  }
  EXPECT_TRUE(WaitFor([&] { return stack.Deliveries().count(7.25) > 0; }));
  EXPECT_EQ(stack.Deliveries()[7.25], 1);
  EXPECT_EQ(stack.service().DuplicateLabelsSuppressed(), 1u);

  // A different key delivers again.
  auto response = client.Post(
      "/estimate", *plan_text_,
      {{"X-Actual-Cpu-Minutes", "7.25"}, {"X-Idempotency-Key", "storm-2"}});
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(WaitFor([&] { return stack.Deliveries()[7.25] == 2; }));

  // The dedup counter is exported at /metrics.
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(
      metrics->body.find("prestroid_estimate_duplicate_labels_total 1"),
      std::string::npos);
  EXPECT_NE(metrics->body.find("prestroid_http_idle_closes_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("prestroid_http_forced_drain_closes_total"),
            std::string::npos);
}

TEST_F(ResilienceStackTest, RetryStormDeliversEveryLabelExactlyOnce) {
  ScopedNetFaults faults;
  CountingStack stack(*records_);
  RetryPolicy policy = FastPolicy();
  // The storm alternates one transport failure with one success per round —
  // a 50% failure rate that would (correctly) trip the default breaker.
  // This test is about label delivery, so keep the breaker out of the way.
  CircuitBreakerConfig lax;
  lax.failure_threshold = 0.95;
  EstimateClient client("127.0.0.1", stack.port(), policy, lax);
  NetFaultOptions options;
  options.recv_mode = NetFaultMode::kTruncate;
  SetNetFaultOptions(options);

  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    // Every round's FIRST response is truncated after the server has the
    // request — the worst case for duplicate delivery, because the server
    // processes the label while the client sees a transport error and
    // retries.
    FaultInjector::Global().ArmFailure(FaultSite::kNetRecv);
    EstimateRequest request;
    request.body = *plan_text_;
    request.actual_cpu_minutes = 100.0 + round;
    request.idempotency_key = "storm-round-" + std::to_string(round);
    auto reply = client.Estimate(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->code, 200);
    EXPECT_GE(reply->attempts, 2u);
  }

  // 100% eventual success, and each label landed exactly once.
  EXPECT_TRUE(WaitFor([&] {
    return stack.Deliveries().size() == static_cast<size_t>(kRounds);
  }));
  const std::map<double, int> deliveries = stack.Deliveries();
  for (int round = 0; round < kRounds; ++round) {
    auto it = deliveries.find(100.0 + round);
    ASSERT_NE(it, deliveries.end()) << "label " << round << " lost";
    EXPECT_EQ(it->second, 1) << "label " << round << " duplicated";
  }
  EXPECT_EQ(client.stats().failures, 0u);
}

TEST_F(ResilienceStackTest, ChunkedPostEstimateWorksEndToEnd) {
  CountingStack stack(*records_);
  HttpClient client("127.0.0.1", stack.port());
  // Hand-roll a chunked POST of the plan text in 7-byte chunks.
  std::string wire =
      "POST /estimate HTTP/1.1\r\nHost: x\r\n"
      "Transfer-Encoding: chunked\r\n\r\n";
  const std::string& text = *plan_text_;
  for (size_t off = 0; off < text.size(); off += 7) {
    const size_t n = std::min<size_t>(7, text.size() - off);
    char size_line[16];
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n", n);
    wire += size_line;
    wire.append(text, off, n);
    wire += "\r\n";
  }
  wire += "0\r\n\r\n";
  ASSERT_TRUE(client.SendRaw(wire).ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 200);
  EXPECT_NE(response->body.find("\"cpu_minutes\""), std::string::npos);
}

}  // namespace
}  // namespace prestroid::net
