// The transport of `vadalink serve`: a newline-delimited-JSON-over-TCP
// server around ReasoningService.
//
// Thread model:
//  * one acceptor thread (poll() with a 100ms tick so Stop() is prompt),
//  * one reader thread per connection — parses lines, answers protocol
//    errors and load sheds inline, enqueues everything else,
//  * `max_inflight` worker threads popping the bounded admission queue;
//    each request runs under a fresh RunContext chained to the
//    server-wide context, with its deadline measured from *enqueue* time
//    (queue wait burns the budget — that is the point).
//
// Robustness properties (exercised by serve_server_test / chaos test):
//  * full queue → immediate kResourceExhausted with retry_after_ms, the
//    connection stays healthy;
//  * Stop() cancels the server context, drains the queue, and answers
//    every admitted-but-unstarted request with kCancelled — no request
//    admitted is ever silently dropped;
//  * a connection idle past idle_timeout_ms is reaped;
//  * a line longer than max_line_bytes poisons only that connection;
//  * fault sites serve.accept / serve.read / serve.respond (plus
//    serve.evaluate inside the service) turn injected faults into
//    request- or connection-level errors, never a dead server.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/run_context.h"
#include "common/status.h"
#include "graph/property_graph.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace vadalink::serve {

struct ServerOptions {
  /// Bind address; tests and the default CLI stay on loopback.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back with port()).
  int port = 0;
  /// Worker threads = maximum concurrently evaluating requests.
  int max_inflight = 4;
  /// Admission queue depth; a full queue sheds.
  size_t queue_depth = 64;
  /// Default and maximum per-request deadline. Requests may ask for less
  /// via "deadline_ms"; asking for more is clamped to this.
  int64_t request_deadline_ms = 10000;
  /// Hint returned with a shed response.
  int64_t retry_after_hint_ms = 100;
  /// Connections idle this long are closed. <= 0 disables reaping.
  int64_t idle_timeout_ms = 300000;
  /// A single request line may not exceed this.
  size_t max_line_bytes = 1 << 20;
};

class Server {
 public:
  Server(ServiceOptions service_options, ServerOptions options,
         MetricsRegistry* metrics);
  ~Server();

  /// Loads the initial state into the service. Call before Start().
  Status Init(graph::PropertyGraph graph, const std::string& rules_source);

  /// Binds, listens and spawns the acceptor + worker threads.
  Status Start();

  /// Stops accepting, cancels in-flight work, answers queued requests
  /// with kCancelled, joins every thread. Idempotent.
  void Stop();

  /// Bound port (valid after Start(); resolves port 0).
  int port() const { return port_; }

  ReasoningService& service() { return service_; }
  const ServerOptions& options() const { return options_; }

  /// True once a client issued the "shutdown" op (or Stop() ran).
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }
  /// Blocks the caller (the CLI main thread) until shutdown is requested.
  void WaitUntilShutdownRequested();

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::mutex write_mu;
    std::atomic<bool> closing{false};
    std::atomic<bool> done{false};  // reader exited
    std::thread reader;
  };

  struct Task {
    std::shared_ptr<Connection> conn;
    Request req;
    RunContext::Clock::time_point enqueued;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  /// Handles one reader-side line end to end (parse, shed, enqueue).
  void DispatchLine(const std::shared_ptr<Connection>& conn,
                    std::string_view line);
  /// Serialised, SIGPIPE-safe line write; marks the connection closing on
  /// failure. Appends the newline itself.
  void WriteLine(Connection& conn, const std::string& line);
  /// Joins the readers of connections that finished and closed their
  /// sockets; `all` joins every reader, then closes what is still open.
  void ReapConnections(bool all);
  void RequestShutdown();

  ServiceOptions service_options_;
  ServerOptions options_;
  MetricsRegistry* metrics_;
  ReasoningService service_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  RunContext server_ctx_;  // cancelled on Stop; parent of every request

  std::unique_ptr<BoundedQueue<Task>> queue_;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;

  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
};

}  // namespace vadalink::serve
