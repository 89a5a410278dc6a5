#include "server/line_server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/trace.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/socket.h"

namespace tardis {
namespace server {

namespace {

/// A hostile client cannot make the server buffer without limit.
constexpr size_t kMaxInbuf = 1u << 20;
/// Drain runs queued requests for this long; past it, the ones still
/// queued are refused instead.
constexpr uint64_t kDrainBudgetMs = 10'000;
constexpr const char* kShuttingDown =
    "ERR SHUTTING_DOWN site draining; retry elsewhere\n";

/// The server that owns SIGTERM/SIGINT (DrainOnTermSignals).
std::atomic<LineServer*> g_signal_server{nullptr};

void OnTermSignal(int) {
  LineServer* server = g_signal_server.load();
  if (server != nullptr) server->RequestDrain();
}

}  // namespace

LineServer::LineServer(LineServerOptions options, HandlerFactory factory)
    : options_(options), factory_(std::move(factory)) {}

LineServer::~LineServer() {
  LineServer* self = this;
  g_signal_server.compare_exchange_strong(self, nullptr);
  for (int fd : listen_fds_) {
    if (fd >= 0) close(fd);
  }
  for (int fd : wake_pipe_) {
    if (fd >= 0) close(fd);
  }
  if (registry_ != nullptr) registry_->DropCallbacks(this);
}

Status LineServer::Listen() {
  const uint16_t wanted[2] = {options_.port, options_.second_port};
  for (int i = 0; i < 2; i++) {
    if (i == 1 && wanted[1] == 0) break;
    auto listener = ListenTcp("", wanted[i]);
    if (!listener.ok()) return listener.status();
    listen_fds_[i] = listener->fd;
    ports_[i] = listener->port;
  }
  if (pipe(wake_pipe_) != 0) {
    return Status::IOError("pipe: " + std::string(strerror(errno)));
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  return Status::OK();
}

void LineServer::BindMetrics(obs::MetricsRegistry* registry,
                             const std::string& prefix,
                             const obs::LabelSet& labels,
                             obs::HistogramMetric* queue_wait) {
  registry_ = registry;
  queue_wait_ = queue_wait;
  registry->RegisterCallbackGauge(
      prefix + "_queue_depth", "Client requests waiting for a worker",
      [this] { return static_cast<double>(queue_depth_.load()); }, labels,
      this);
  registry->RegisterCallbackCounter(
      prefix + "_shed_total",
      "Client requests rejected because the queue was full",
      [this] { return shed_total_.load(); }, labels, this);
  registry->RegisterCallbackCounter(
      prefix + "_deadline_expired_total",
      "Client requests expired in the queue past the request deadline",
      [this] { return expired_total_.load(); }, labels, this);
}

void LineServer::DrainOnTermSignals() {
  g_signal_server.store(this);
  struct sigaction sa{};
  sa.sa_handler = OnTermSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);
}

void LineServer::RequestDrain() {
  drain_requested_.store(true);
  Wake();
}

void LineServer::Wake() {
  const char b = 1;
  ssize_t ignored = write(wake_pipe_[1], &b, 1);
  (void)ignored;
}

void LineServer::WorkerLoop() {
  while (true) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return workers_stop_ || !queue_.empty(); });
      if (workers_stop_ && queue_.empty()) return;
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_.fetch_sub(1);
    Completion c;
    c.conn_id = req.conn_id;
    const uint64_t start_us = NowMicros();
    const uint64_t wait_us =
        start_us >= req.enqueued_us ? start_us - req.enqueued_us : 0;
    if (options_.request_deadline_ms > 0 &&
        wait_us > options_.request_deadline_ms * 1000) {
      // The request aged out while queued; answering it now would just
      // add latency on top of overload. Tell the client to retry.
      expired_total_.fetch_add(1);
      c.reply.text = "ERR DEADLINE request expired in queue; retry";
    } else {
      // A leading "*T..." token is the caller's distributed-trace
      // context: bind it so every span and stage the handler records
      // joins that trace. A corrupt header is stripped and the request
      // runs untraced.
      obs::TraceContext ctx;
      obs::StripTraceHeader(&req.line, &ctx);
      obs::TraceContextScope bind_trace(ctx);
      if (queue_wait_ != nullptr) queue_wait_->Observe(wait_us);
      LineRequest request;
      request.line = std::move(req.line);
      request.enqueued_us = req.enqueued_us;
      request.queue_wait_us = wait_us;
      c.reply = (*req.handler)(request);
    }
    {
      std::lock_guard<std::mutex> guard(done_mu_);
      done_.push_back(std::move(c));
    }
    Wake();
  }
}

void LineServer::BeginDrain() {
  if (draining_.exchange(true)) return;
  size_t queued = 0;
  {
    std::lock_guard<std::mutex> guard(queue_mu_);
    queued = queue_.size();
  }
  TARDIS_INFO("draining (listen closed, %zu queued)", queued);
  for (int& fd : listen_fds_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
  drain_deadline_ms_ = NowMillis() + kDrainBudgetMs;
}

void LineServer::CancelQueued() {
  std::deque<Request> cancelled;
  {
    std::lock_guard<std::mutex> guard(queue_mu_);
    cancelled.swap(queue_);
  }
  queue_depth_.fetch_sub(cancelled.size());
  TARDIS_INFO("drain budget spent: refusing %zu queued request(s)",
              cancelled.size());
  for (const Request& req : cancelled) {
    auto it = conns_.find(req.conn_id);
    if (it == conns_.end()) continue;  // client went away while queued
    it->second.busy = false;
    it->second.outbuf += kShuttingDown;
    PumpConn(req.conn_id, it->second);
  }
}

void LineServer::PumpConn(uint64_t id, Conn& conn) {
  while (!conn.busy && !conn.close_after_flush) {
    const size_t nl = conn.inbuf.find('\n');
    if (nl == std::string::npos) break;
    std::string line = conn.inbuf.substr(0, nl);
    conn.inbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (draining_.load()) {
      conn.outbuf += kShuttingDown;
      continue;
    }
    bool shed = false;
    {
      std::lock_guard<std::mutex> guard(queue_mu_);
      if (queue_.size() >= options_.max_queue) {
        shed = true;
      } else {
        Request req;
        req.conn_id = id;
        req.line = std::move(line);
        req.handler = conn.handler;
        req.enqueued_us = NowMicros();
        queue_.push_back(std::move(req));
        // Counted under the lock so a worker's decrement cannot run first.
        queue_depth_.fetch_add(1);
      }
    }
    if (shed) {
      // Load shedding: bounded queue, retryable refusal. The client backs
      // off and resends instead of the server buffering without limit.
      shed_total_.fetch_add(1);
      conn.outbuf += "ERR BUSY queue full; retry\n";
      continue;
    }
    conn.busy = true;
    queue_cv_.notify_one();
  }
}

void LineServer::DeliverCompletions() {
  std::deque<Completion> finished;
  {
    std::lock_guard<std::mutex> guard(done_mu_);
    finished.swap(done_);
  }
  for (Completion& c : finished) {
    if (c.reply.shutdown) BeginDrain();
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // client went away mid-request
    Conn& conn = it->second;
    conn.busy = false;
    conn.outbuf += c.reply.text;
    conn.outbuf.push_back('\n');
    if (c.reply.close_conn) conn.close_after_flush = true;
    PumpConn(c.conn_id, conn);
  }
}

void LineServer::ReadConn(uint64_t id, Conn& conn,
                          std::vector<uint64_t>* to_close) {
  char chunk[65536];
  bool eof = false;
  while (true) {
    const ssize_t n = read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn.inbuf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    eof = true;
    break;
  }
  if (conn.inbuf.size() > kMaxInbuf) {
    conn.inbuf.clear();
    conn.outbuf += "ERR line too long\n";
    conn.close_after_flush = true;
  } else {
    PumpConn(id, conn);
  }
  if (eof && !conn.busy && conn.out_off >= conn.outbuf.size()) {
    to_close->push_back(id);
  } else if (eof) {
    conn.close_after_flush = true;
  }
}

void LineServer::WriteConn(uint64_t id, Conn& conn,
                           std::vector<uint64_t>* to_close) {
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t n = send(conn.fd, conn.outbuf.data() + conn.out_off,
                           conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    to_close->push_back(id);
    return;
  }
  conn.outbuf.clear();
  conn.out_off = 0;
  if (conn.close_after_flush && !conn.busy) to_close->push_back(id);
}

bool LineServer::AnyBusy() const {
  for (const auto& [id, conn] : conns_) {
    if (conn.busy) return true;
  }
  return false;
}

bool LineServer::Drained() {
  {
    std::lock_guard<std::mutex> guard(queue_mu_);
    if (!queue_.empty()) return false;
  }
  if (AnyBusy()) return false;
  for (const auto& [id, conn] : conns_) {
    if (conn.out_off < conn.outbuf.size()) return false;
  }
  return true;
}

void LineServer::Run() {
  for (uint32_t w = 0; w < options_.workers; w++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }

  while (true) {
    std::vector<pollfd> pfds;
    std::vector<uint64_t> conn_ids;
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    // -1 (ignored by poll) when absent or once draining.
    pfds.push_back({listen_fds_[0], POLLIN, 0});
    pfds.push_back({listen_fds_[1], POLLIN, 0});
    constexpr size_t kFirstConn = 3;
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (conn.out_off < conn.outbuf.size()) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
      conn_ids.push_back(id);
    }

    const int rc = poll(pfds.data(), pfds.size(), 100);
    if (rc < 0 && errno != EINTR) {
      TARDIS_WARN("line server: poll: %s", strerror(errno));
    }

    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (drain_requested_.load()) BeginDrain();
    DeliverCompletions();
    if (draining_.load() && !queue_cancelled_ &&
        NowMillis() >= drain_deadline_ms_) {
      queue_cancelled_ = true;
      CancelQueued();
    }

    for (int i = 0; i < 2; i++) {
      if (listen_fds_[i] < 0 || !(pfds[1 + i].revents & POLLIN)) continue;
      while (true) {
        const int fd = accept(listen_fds_[i], nullptr, nullptr);
        if (fd < 0) break;
        SetNonBlocking(fd);
        Conn conn;
        conn.fd = fd;
        conn.handler = std::make_shared<const Handler>(factory_());
        conns_.emplace(next_conn_id_++, std::move(conn));
      }
    }

    std::vector<uint64_t> to_close;
    for (size_t p = kFirstConn; p < pfds.size(); p++) {
      const uint64_t id = conn_ids[p - kFirstConn];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      const short revents = pfds[p].revents;
      // POLLHUP with pending output: try to flush once below anyway.
      if ((revents & (POLLERR | POLLHUP)) &&
          conn.out_off >= conn.outbuf.size()) {
        to_close.push_back(id);
        continue;
      }
      if (revents & POLLIN) {
        ReadConn(id, conn, &to_close);
        if (!to_close.empty() && to_close.back() == id) continue;
      }
      if (conn.out_off < conn.outbuf.size()) {
        WriteConn(id, conn, &to_close);
      } else if (conn.close_after_flush && !conn.busy) {
        to_close.push_back(id);
      }
    }
    for (uint64_t id : to_close) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      close(it->second.fd);
      conns_.erase(it);
    }

    // Past the budget nothing is queued any more; stop once no handler
    // runs, after this pass tried to write every reply.
    if (draining_.load() && (Drained() || (queue_cancelled_ && !AnyBusy()))) {
      break;
    }
  }

  {
    std::lock_guard<std::mutex> guard(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  for (auto& [id, conn] : conns_) close(conn.fd);
  conns_.clear();
}

}  // namespace server
}  // namespace tardis
