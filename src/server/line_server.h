// LineServer: the one serving core behind every line-protocol front end,
// tardisd's client and coordination ports and tardis-router. A
// non-blocking poll loop over one or two listen ports with
// one request in flight per connection (replies stay in order), a bounded
// queue drained by a worker pool, ERR BUSY / ERR DEADLINE /
// ERR SHUTTING_DOWN, a 1 MiB input guard, "*T" trace-header binding, and
// drain on SIGTERM. The contract is spelled out in DESIGN.md §6.3.

#ifndef TARDIS_SERVER_LINE_SERVER_H_
#define TARDIS_SERVER_LINE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace tardis {
namespace server {

struct LineServerOptions {
  uint16_t port = 0;  ///< 0 binds an ephemeral port (see port())
  /// A second port served exactly like the first (tardisd's
  /// --coord-port); 0 = none.
  uint16_t second_port = 0;
  uint32_t workers = 4;
  size_t max_queue = 128;               ///< queued requests before ERR BUSY
  uint64_t request_deadline_ms = 1000;  ///< max queue wait; 0 = unbounded
};

/// One request as a worker hands it to the handler.
struct LineRequest {
  std::string line;            ///< trace header already stripped and bound
  uint64_t enqueued_us = 0;    ///< NowMicros() when the line was queued
  uint64_t queue_wait_us = 0;  ///< how long it waited for a worker
};

struct LineReply {
  std::string text;         ///< the reply, without its trailing newline
  bool close_conn = false;  ///< close the connection once this is flushed
  bool shutdown = false;    ///< start a drain of the whole server
};

class LineServer {
 public:
  /// Serves one connection's requests, on a worker thread, one at a time
  /// and in arrival order. Handlers of different connections run
  /// concurrently, one per worker.
  using Handler = std::function<LineReply(const LineRequest&)>;
  /// Called on the loop thread for every accepted connection. The handler
  /// it returns (and what it captures, e.g. a per-connection session)
  /// lives until the connection is closed and its last request is done.
  using HandlerFactory = std::function<Handler()>;

  LineServer(LineServerOptions options, HandlerFactory factory);
  /// Closes the listener (if Run() did not) and drops the bound metrics.
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds the listen socket(s); port() then names the bound port.
  Status Listen();
  uint16_t port() const { return ports_[0]; }
  uint16_t second_port() const { return ports_[1]; }  ///< 0 = none

  /// Registers the serving metrics on `registry`: <prefix>_queue_depth
  /// (gauge), <prefix>_shed_total and <prefix>_deadline_expired_total
  /// (counters), each with `labels`; `queue_wait`, when set, observes
  /// every dequeued request's queue wait in µs. `registry` must outlive
  /// this server.
  void BindMetrics(obs::MetricsRegistry* registry, const std::string& prefix,
                   const obs::LabelSet& labels,
                   obs::HistogramMetric* queue_wait);

  /// Routes SIGTERM and SIGINT to RequestDrain on this server and ignores
  /// SIGPIPE. One server per process may own the signals.
  void DrainOnTermSignals();

  /// Starts the workers and serves until a drain completes, then joins
  /// the workers and closes every connection. A drain answers everything
  /// queued within its budget (10 s); past it, requests still queued get
  /// ERR SHUTTING_DOWN, and Run() waits for running handlers and writes
  /// their replies before it returns. Call once, after a successful
  /// Listen().
  void Run();

  /// Starts a drain. Safe from any thread and from a signal handler.
  void RequestDrain();

  uint64_t queue_depth() const { return queue_depth_.load(); }
  uint64_t shed_total() const { return shed_total_.load(); }
  uint64_t expired_total() const { return expired_total_.load(); }
  bool draining() const { return draining_.load(); }

 private:
  struct Conn {
    int fd = -1;
    std::shared_ptr<const Handler> handler;
    std::string inbuf;
    std::string outbuf;
    size_t out_off = 0;
    bool busy = false;  ///< one request in the pipeline (strict order)
    bool close_after_flush = false;
  };
  struct Request {
    uint64_t conn_id = 0;
    std::string line;
    std::shared_ptr<const Handler> handler;
    uint64_t enqueued_us = 0;
  };
  struct Completion {
    uint64_t conn_id = 0;
    LineReply reply;
  };

  void WorkerLoop();
  void Wake();
  void BeginDrain();
  /// Queues the complete lines of `conn`'s input, at most one at a time.
  void PumpConn(uint64_t id, Conn& conn);
  void ReadConn(uint64_t id, Conn& conn, std::vector<uint64_t>* to_close);
  void WriteConn(uint64_t id, Conn& conn, std::vector<uint64_t>* to_close);
  void DeliverCompletions();
  /// Past the drain budget: answers every queued request ERR
  /// SHUTTING_DOWN instead of running it.
  void CancelQueued();
  bool AnyBusy() const;
  bool Drained();

  const LineServerOptions options_;
  const HandlerFactory factory_;
  int listen_fds_[2] = {-1, -1};  ///< port and second_port (-1 = none)
  uint16_t ports_[2] = {0, 0};
  /// Worker completions and drain requests wake the poll loop here.
  int wake_pipe_[2] = {-1, -1};

  obs::MetricsRegistry* registry_ = nullptr;
  obs::HistogramMetric* queue_wait_ = nullptr;

  std::atomic<uint64_t> queue_depth_{0};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> expired_total_{0};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> draining_{false};

  // Loop-thread state.
  std::map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 1;
  uint64_t drain_deadline_ms_ = 0;
  bool queue_cancelled_ = false;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;  // guarded by queue_mu_
  bool workers_stop_ = false;  // guarded by queue_mu_

  std::mutex done_mu_;
  std::deque<Completion> done_;  // guarded by done_mu_

  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace tardis

#endif  // TARDIS_SERVER_LINE_SERVER_H_
