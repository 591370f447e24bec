#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/fault_injection.h"

namespace vadalink::serve {

namespace {

constexpr int kPollTickMs = 100;

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

Server::Server(ServiceOptions service_options, ServerOptions options,
               MetricsRegistry* metrics)
    : service_options_(service_options),
      options_(options),
      metrics_(metrics),
      service_(service_options, metrics) {
  if (options_.max_inflight < 1) options_.max_inflight = 1;
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  if (options_.request_deadline_ms <= 0) options_.request_deadline_ms = 10000;
}

Server::~Server() { Stop(); }

Status Server::Init(graph::PropertyGraph graph,
                    const std::string& rules_source) {
  return service_.Init(std::move(graph), rules_source);
}

Status Server::Start() {
  if (running_.load()) return Status::InvalidArgument("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Errno("bind " + options_.host + ":" +
                      std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) != 0) {
    Status st = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  queue_ = std::make_unique<BoundedQueue<Task>>(options_.queue_depth);
  running_.store(true);
  stopping_.store(false);
  for (int i = 0; i < options_.max_inflight; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  // Order matters: readers that notice running_ == false consult
  // stopping_ to decide whether to leave their socket open for the
  // drain below — the gate must already be up when they look.
  stopping_.store(true);
  if (!running_.exchange(false)) return;
  RequestShutdown();
  // Workers notice kCancelled at their next RunContext checkpoint.
  server_ctx_.RequestCancel();

  // Each fd is closed only after the threads that poll it are joined:
  // closed earlier, its number could be reused by a new socket that a
  // stale poll or recv would then read.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Every admitted request still gets an answer.
  if (queue_ != nullptr) {
    for (Task& task : queue_->Close()) {
      WriteLine(*task.conn,
                RenderError(task.req.id,
                            Status::Cancelled("server shutting down")));
      MetricAdd(metrics_, "serve.requests.cancelled", 1);
    }
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      conn->closing.store(true);
      std::lock_guard<std::mutex> wlock(conn->write_mu);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  ReapConnections(/*all=*/true);
}

void Server::WaitUntilShutdownRequested() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_.load(); });
}

void Server::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_.store(true);
  }
  shutdown_cv_.notify_all();
}

void Server::AcceptLoop() {
  while (running_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, kPollTickMs);
    ReapConnections(/*all=*/false);
    if (rc <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    if (FaultInjection::AnyArmed()) {
      // An injected accept fault drops this connection attempt only.
      Status st = FaultInjection::Check("serve.accept");
      if (!st.ok()) {
        MetricAdd(metrics_, "serve.connections.faulted", 1);
        ::close(fd);
        continue;
      }
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_.push_back(conn);
    }
    MetricAdd(metrics_, "serve.connections.opened", 1);
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[4096];
  auto last_activity = RunContext::Clock::now();

  while (running_.load() && !conn->closing.load()) {
    pollfd pfd{conn->fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1, kPollTickMs);
    if (rc < 0) break;
    if (rc == 0) {
      if (options_.idle_timeout_ms > 0 &&
          RunContext::Clock::now() - last_activity >
              std::chrono::milliseconds(options_.idle_timeout_ms)) {
        MetricAdd(metrics_, "serve.connections.idle_reaped", 1);
        break;
      }
      continue;
    }
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error
    last_activity = RunContext::Clock::now();
    buffer.append(chunk, static_cast<size_t>(n));

    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = nl + 1;
      if (!line.empty()) DispatchLine(conn, line);
      if (conn->closing.load()) break;
    }
    buffer.erase(0, start);
    if (buffer.size() > options_.max_line_bytes) {
      // A runaway line poisons only this connection.
      WriteLine(*conn,
                RenderError(Json::Null(),
                            Status::ResourceExhausted(
                                "request line exceeds " +
                                std::to_string(options_.max_line_bytes) +
                                " bytes")));
      MetricAdd(metrics_, "serve.connections.overlong_line", 1);
      break;
    }
  }

  // When the server itself is stopping, leave the socket open and
  // writable: Stop() still answers this connection's drained queue tasks
  // and in-flight responses, and closes the fd only after the workers
  // are joined. Closing here would race that drain and lose responses.
  if (!stopping_.load()) {
    conn->closing.store(true);
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  MetricAdd(metrics_, "serve.connections.closed", 1);
  conn->done.store(true);
}

void Server::DispatchLine(const std::shared_ptr<Connection>& conn,
                          std::string_view line) {
  if (FaultInjection::AnyArmed()) {
    // An injected read fault fails this request with a structured error;
    // the connection and server keep going.
    Status st = FaultInjection::Check("serve.read");
    if (!st.ok()) {
      WriteLine(*conn, RenderError(RecoverId(line), st));
      MetricAdd(metrics_, "serve.requests.errors", 1);
      return;
    }
  }

  auto parsed = ParseRequest(line);
  if (!parsed.ok()) {
    WriteLine(*conn, RenderError(RecoverId(line), parsed.status()));
    MetricAdd(metrics_, "serve.requests.malformed", 1);
    return;
  }
  Request req = std::move(parsed).value();

  if (req.op == "shutdown") {
    Json result = Json::MakeObject();
    result.Set("shutting_down", Json::Bool(true));
    WriteLine(*conn,
              RenderResult(req.id, service_.version(), std::move(result)));
    RequestShutdown();
    return;
  }

  Json id = req.id;  // keep a copy: the task may be consumed by the queue
  Task task;
  task.conn = conn;
  task.req = std::move(req);
  task.enqueued = RunContext::Clock::now();
  if (!queue_->TryPush(std::move(task))) {
    // Load shed: full queue (or shutdown) answers immediately instead of
    // queueing without bound.
    MetricAdd(metrics_, "serve.requests.shed", 1);
    WriteLine(*conn,
              RenderError(id,
                          Status::ResourceExhausted(
                              "admission queue full (depth " +
                              std::to_string(queue_->depth()) + ")"),
                          options_.retry_after_hint_ms));
    return;
  }
  MetricAdd(metrics_, "serve.requests.accepted", 1);
  MetricSet(metrics_, "serve.queue.depth",
            static_cast<double>(queue_->size()));
}

void Server::WorkerLoop() {
  while (true) {
    auto task = queue_->Pop();
    if (!task.has_value()) return;  // closed and drained
    MetricSet(metrics_, "serve.queue.depth",
              static_cast<double>(queue_->size()));

    // Deadline measured from enqueue: time spent waiting in the queue
    // burns the request's budget, so an overloaded server degrades to
    // stale answers / deadline errors instead of ever-growing latency.
    int64_t deadline_ms = options_.request_deadline_ms;
    if (task->req.deadline_ms.has_value()) {
      deadline_ms = std::clamp<int64_t>(*task->req.deadline_ms, 0,
                                        options_.request_deadline_ms);
    }
    RunContext request_ctx;
    request_ctx.set_parent(&server_ctx_);
    request_ctx.set_deadline(task->enqueued +
                             std::chrono::milliseconds(deadline_ms));

    std::string response = service_.Handle(task->req, &request_ctx);
    MetricAdd(metrics_, "serve.requests.completed", 1);
    WriteLine(*task->conn, response);
  }
}

void Server::WriteLine(Connection& conn, const std::string& line) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (conn.fd < 0 || conn.closing.load()) return;
  if (FaultInjection::AnyArmed()) {
    // An injected respond fault behaves like a broken pipe: the
    // connection dies, the server survives.
    Status st = FaultInjection::Check("serve.respond");
    if (!st.ok()) {
      MetricAdd(metrics_, "serve.connections.respond_faulted", 1);
      conn.closing.store(true);
      return;
    }
  }
  std::string framed = line;
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::send(conn.fd, framed.data() + sent, framed.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      conn.closing.store(true);
      return;
    }
    sent += static_cast<size_t>(n);
  }
  MetricAdd(metrics_, "serve.responses.written", 1);
}

void Server::ReapConnections(bool all) {
  std::vector<std::shared_ptr<Connection>> to_join;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      // A finished reader that left its socket open (the server was
      // stopping) is Stop()'s to close, after the drain.
      if (all || ((*it)->done.load() && (*it)->fd < 0)) {
        to_join.push_back(*it);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : to_join) {
    if (conn->reader.joinable()) conn->reader.join();
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
}

}  // namespace vadalink::serve
