// TardisClient (src/client/, DESIGN.md §13): retry classification,
// exactly-once session headers, failover, floor learning and degraded
// reads — first against an in-process scripted server (deterministic
// wire-level assertions), then the ERR BUSY / ERR DEADLINE retry
// contract against a real tardisd with a tiny queue bound, and its
// rejection of an out-of-range port flag (set TARDISD_BIN; skipped when
// absent).

#include "client/tardis_client.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "util/clock.h"

namespace tardis {
namespace {

uint16_t BindAny(int* out_fd) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *out_fd = fd;
  return ntohs(addr.sin_port);
}

/// In-process line-protocol server driven by a handler: each request
/// line goes through the handler; an empty reply means "cut the
/// connection right here" (the mid-request failure the retry
/// classification pivots on). Requests are logged for assertions.
class ScriptServer {
 public:
  using Handler = std::function<std::string(const std::string&)>;

  explicit ScriptServer(Handler handler) : handler_(std::move(handler)) {
    port_ = BindAny(&listen_fd_);
    EXPECT_EQ(listen(listen_fd_, 8), 0);
    thread_ = std::thread([this] { Serve(); });
  }

  ~ScriptServer() {
    stop_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

  uint16_t port() const { return port_; }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

  std::vector<std::string> requests() {
    std::lock_guard<std::mutex> lock(mu_);
    return requests_;
  }

 private:
  void Serve() {
    while (!stop_.load()) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::string inbuf;
      char chunk[4096];
      bool open = true;
      while (open) {
        size_t nl;
        while ((nl = inbuf.find('\n')) == std::string::npos) {
          const ssize_t n = read(fd, chunk, sizeof(chunk));
          if (n <= 0) {
            open = false;
            break;
          }
          inbuf.append(chunk, static_cast<size_t>(n));
        }
        if (!open) break;
        const std::string line = inbuf.substr(0, nl);
        inbuf.erase(0, nl + 1);
        std::string reply;
        {
          std::lock_guard<std::mutex> lock(mu_);
          requests_.push_back(line);
          reply = handler_(line);
        }
        if (reply.empty()) {
          open = false;  // scripted mid-request connection cut
          break;
        }
        reply.push_back('\n');
        if (write(fd, reply.data(), reply.size()) !=
            static_cast<ssize_t>(reply.size())) {
          open = false;
        }
      }
      ::close(fd);
    }
  }

  Handler handler_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::mutex mu_;
  std::vector<std::string> requests_;
};

client::TardisClientOptions BaseOptions(const std::string& endpoint) {
  client::TardisClientOptions opt;
  opt.endpoints.push_back(endpoint);
  opt.request_deadline_ms = 5000;
  opt.backoff_initial_ms = 1;
  opt.backoff_max_ms = 10;
  opt.seed = 42;
  return opt;
}

/// Parses the `*S` token off a logged request line; session_id 0 when
/// the line carried none.
SessionHeader HeaderOf(std::string line) {
  SessionHeader h;
  StripSessionHeader(&line, &h);
  return h;
}

TEST(TardisClientTest, RetriesBusyThenSucceeds) {
  int calls = 0;
  ScriptServer server([&calls](const std::string&) -> std::string {
    return ++calls < 3 ? "ERR BUSY queue full; retry" : "PONG";
  });
  client::TardisClient cli(BaseOptions(server.endpoint()));
  std::string reply;
  ASSERT_TRUE(cli.Call("ping", &reply).ok());
  EXPECT_EQ(reply, "PONG");
  EXPECT_EQ(cli.retries(), 2u);
  EXPECT_EQ(cli.requests(), 1u);  // one logical operation
}

TEST(TardisClientTest, DeadlineBoundsRetries) {
  ScriptServer server([](const std::string&) {
    return std::string("ERR BUSY queue full; retry");
  });
  auto opt = BaseOptions(server.endpoint());
  opt.request_deadline_ms = 200;
  client::TardisClient cli(std::move(opt));
  std::string reply;
  const uint64_t start = NowMillis();
  const Status s = cli.Call("ping", &reply);
  EXPECT_FALSE(s.ok());
  EXPECT_LT(NowMillis() - start, 2000u);
  EXPECT_GE(cli.retries(), 1u);
}

TEST(TardisClientTest, SessionWriteRetriesAfterCutWithSameSeq) {
  // First attempt: the connection dies after the request is read (the
  // outcome-unknown case). The retry must reuse the SAME (sid, seq) so
  // the daemon's dedup table can collapse it.
  int calls = 0;
  ScriptServer server([&calls](const std::string&) -> std::string {
    return ++calls == 1 ? "" : "*F0:1 OK STATE 0:1";
  });
  client::TardisClient cli(BaseOptions(server.endpoint()));
  std::string state;
  ASSERT_TRUE(cli.Put("k", "v", &state).ok());
  EXPECT_EQ(state, "0:1");
  const auto reqs = server.requests();
  ASSERT_EQ(reqs.size(), 2u);
  const SessionHeader first = HeaderOf(reqs[0]);
  const SessionHeader second = HeaderOf(reqs[1]);
  EXPECT_EQ(first.session_id, cli.session_id());
  EXPECT_NE(first.session_id, 0u);
  EXPECT_EQ(first.seq, second.seq);
  EXPECT_TRUE(second.write());
  // The reply's floor token was learned into the session.
  ASSERT_EQ(cli.floors().count(0), 1u);
  EXPECT_EQ(cli.floors().at(0), 1u);
}

TEST(TardisClientTest, UnsafeCommandNotRetriedAfterCut) {
  // `merge` is neither a read nor a sessioned write: once bytes are on
  // the wire and the connection dies, the outcome is unknown and a blind
  // resend could merge twice. The client must surface the failure.
  ScriptServer server([](const std::string&) { return std::string(); });
  client::TardisClient cli(BaseOptions(server.endpoint()));
  std::string reply;
  const Status s = cli.Call("merge lww", &reply);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(server.requests().size(), 1u);
}

TEST(TardisClientTest, ReadsRetryAfterCut) {
  int calls = 0;
  ScriptServer server([&calls](const std::string&) -> std::string {
    return ++calls == 1 ? "" : "VALUE v";
  });
  client::TardisClient cli(BaseOptions(server.endpoint()));
  std::string value;
  ASSERT_TRUE(cli.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(server.requests().size(), 2u);
}

TEST(TardisClientTest, FailsOverOnShuttingDown) {
  ScriptServer draining([](const std::string&) {
    return std::string("ERR SHUTTING_DOWN site draining; retry elsewhere");
  });
  ScriptServer healthy([](const std::string&) { return std::string("PONG"); });
  auto opt = BaseOptions(draining.endpoint());
  opt.endpoints.push_back(healthy.endpoint());
  client::TardisClient cli(std::move(opt));
  std::string reply;
  ASSERT_TRUE(cli.Call("ping", &reply).ok());
  EXPECT_EQ(reply, "PONG");
  EXPECT_GE(cli.failovers(), 1u);
  EXPECT_EQ(healthy.requests().size(), 1u);
}

TEST(TardisClientTest, BehindReplicaFailsOverWithFloors) {
  ScriptServer behind([](const std::string&) {
    return std::string("ERR BEHIND site missing session writes; "
                       "retry elsewhere");
  });
  ScriptServer caught_up([](const std::string& line) -> std::string {
    return line.find("get") != std::string::npos ? "*F0:5 VALUE v" : "PONG";
  });
  auto opt = BaseOptions(behind.endpoint());
  opt.endpoints.push_back(caught_up.endpoint());
  client::TardisClient cli(std::move(opt));
  std::string value;
  ASSERT_TRUE(cli.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_GE(cli.failovers(), 1u);
}

TEST(TardisClientTest, StaleReadsOmitFreshFloorsAndFlag) {
  ScriptServer server([](const std::string& line) -> std::string {
    if (line.find("put") != std::string::npos) return "*F0:7 OK STATE 0:7";
    return "VALUE v";
  });
  auto opt = BaseOptions(server.endpoint());
  opt.stale_reads_ms = 60'000;
  client::TardisClient cli(std::move(opt));
  std::string state;
  ASSERT_TRUE(cli.Put("k", "v", &state).ok());
  std::string value;
  ASSERT_TRUE(cli.Get("k", &value).ok());
  const auto reqs = server.requests();
  ASSERT_EQ(reqs.size(), 2u);
  // The floor was learned moments ago — inside the staleness bound — so
  // the read omits it and flags stale-ok instead of demanding coverage.
  const SessionHeader read_hdr = HeaderOf(reqs[1]);
  EXPECT_TRUE(read_hdr.stale_ok());
  EXPECT_TRUE(read_hdr.floors.empty());
  EXPECT_EQ(cli.stale_reads(), 1u);
}

TEST(TardisClientTest, StrictReadsCarryFloors) {
  ScriptServer server([](const std::string& line) -> std::string {
    if (line.find("put") != std::string::npos) return "*F0:7 OK STATE 0:7";
    return "VALUE v";
  });
  client::TardisClient cli(BaseOptions(server.endpoint()));
  std::string state;
  ASSERT_TRUE(cli.Put("k", "v", &state).ok());
  std::string value;
  ASSERT_TRUE(cli.Get("k", &value).ok());
  const auto reqs = server.requests();
  ASSERT_EQ(reqs.size(), 2u);
  const SessionHeader read_hdr = HeaderOf(reqs[1]);
  EXPECT_FALSE(read_hdr.stale_ok());
  ASSERT_EQ(read_hdr.floors.size(), 1u);
  EXPECT_EQ(read_hdr.floors[0],
            (std::pair<uint32_t, uint64_t>{0, 7}));
  EXPECT_EQ(cli.stale_reads(), 0u);
}

TEST(TardisClientTest, TwoPcAbortBumpsAttempt) {
  int calls = 0;
  ScriptServer server([&calls](const std::string&) -> std::string {
    return ++calls == 1 ? "ERR 2PC abort txn 99: participant refused"
                        : "OK STATE 0:3";
  });
  client::TardisClient cli(BaseOptions(server.endpoint()));
  std::string reply;
  ASSERT_TRUE(cli.MultiPut({{"a", "1"}, {"b", "2"}}, &reply).ok());
  const auto reqs = server.requests();
  ASSERT_EQ(reqs.size(), 2u);
  const SessionHeader first = HeaderOf(reqs[0]);
  const SessionHeader second = HeaderOf(reqs[1]);
  EXPECT_EQ(first.seq, second.seq);
  // A definitive abort re-derives the txn id via the attempt counter so
  // the fresh 2PC round is not confused with the aborted one.
  EXPECT_EQ(second.attempt, first.attempt + 1);
}

TEST(TardisClientTest, MetricsExported) {
  obs::MetricsRegistry registry;
  int calls = 0;
  ScriptServer server([&calls](const std::string&) -> std::string {
    return ++calls < 2 ? "ERR BUSY queue full; retry" : "PONG";
  });
  auto opt = BaseOptions(server.endpoint());
  opt.registry = &registry;
  client::TardisClient cli(std::move(opt));
  std::string reply;
  ASSERT_TRUE(cli.Call("ping", &reply).ok());
  bool saw_requests = false, saw_retries = false;
  for (const obs::Sample& s : registry.Collect()) {
    if (s.name == "tardis_client_requests") saw_requests = s.counter >= 1;
    if (s.name == "tardis_client_retries") saw_retries = s.counter >= 1;
  }
  EXPECT_TRUE(saw_requests);
  EXPECT_TRUE(saw_retries);
}

// ---- real-daemon contract (TARDISD_BIN) --------------------------------

/// Spawns one tardisd with a tiny queue so ERR BUSY / ERR DEADLINE are
/// easy to provoke, mirroring the e2e driver's overload phase.
class DaemonGuard {
 public:
  bool Start() {
    const char* bin = ::getenv("TARDISD_BIN");
    if (bin == nullptr || bin[0] == '\0') return false;
    int probe = -1;
    repl_port_ = BindAny(&probe);
    ::close(probe);
    uint16_t ghost_port = BindAny(&probe);
    ::close(probe);
    client_port_ = BindAny(&probe);
    ::close(probe);
    pid_ = fork();
    if (pid_ == 0) {
      const std::string site = "--site=0";
      // The peer list must name at least two sites; the second is a
      // never-started ghost (this suite only needs the client port).
      const std::string peers = "--peers=127.0.0.1:" +
                                std::to_string(repl_port_) + ",127.0.0.1:" +
                                std::to_string(ghost_port);
      const std::string cport =
          "--client-port=" + std::to_string(client_port_);
      freopen("/dev/null", "w", stdout);
      execl(bin, "tardisd", site.c_str(), peers.c_str(), cport.c_str(),
            "--workers=1", "--max-queue=1", "--request-deadline-ms=300",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    // Wait for the client port to come up.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      const int fd = Dial();
      if (fd >= 0) {
        ::close(fd);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// Raw connection to the daemon (for pinning the single worker).
  int Dial() const {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(client_port_);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  uint16_t client_port() const { return client_port_; }

  ~DaemonGuard() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

 private:
  pid_t pid_ = -1;
  uint16_t repl_port_ = 0;
  uint16_t client_port_ = 0;
};

TEST(TardisClientDaemonTest, BusyDeadlineContractEventualSuccess) {
  DaemonGuard daemon;
  if (!daemon.Start()) GTEST_SKIP() << "TARDISD_BIN not set or not runnable";
  signal(SIGPIPE, SIG_IGN);

  // Pin the only worker past the request deadline; the client's pings
  // are shed (ERR BUSY) or expire in the queue (ERR DEADLINE) — both
  // retryable, both meaning "not executed" — until the worker frees up.
  const int pin = daemon.Dial();
  ASSERT_GE(pin, 0);
  const char sleep_cmd[] = "sleep 700\n";
  ASSERT_EQ(write(pin, sleep_cmd, sizeof(sleep_cmd) - 1),
            static_cast<ssize_t>(sizeof(sleep_cmd) - 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  client::TardisClientOptions opt;
  opt.endpoints.push_back("127.0.0.1:" +
                          std::to_string(daemon.client_port()));
  opt.request_deadline_ms = 10'000;
  opt.backoff_initial_ms = 20;
  opt.backoff_max_ms = 200;
  opt.seed = 42;
  client::TardisClient cli(std::move(opt));
  std::string reply;
  ASSERT_TRUE(cli.Call("ping", &reply).ok());
  EXPECT_EQ(reply, "PONG");
  EXPECT_GE(cli.retries(), 1u);  // the contract actually fired
  ::close(pin);

  // Exactly-once session writes against the real daemon.
  std::string state;
  ASSERT_TRUE(cli.Put("ck", "cv", &state).ok());
  EXPECT_FALSE(state.empty());
  std::string value;
  ASSERT_TRUE(cli.Get("ck", &value).ok());
  EXPECT_EQ(value, "cv");
}

TEST(TardisClientDaemonTest, ClientDeadlinePropagates) {
  DaemonGuard daemon;
  if (!daemon.Start()) GTEST_SKIP() << "TARDISD_BIN not set or not runnable";
  signal(SIGPIPE, SIG_IGN);

  const int pin = daemon.Dial();
  ASSERT_GE(pin, 0);
  const char sleep_cmd[] = "sleep 3000\n";
  ASSERT_EQ(write(pin, sleep_cmd, sizeof(sleep_cmd) - 1),
            static_cast<ssize_t>(sizeof(sleep_cmd) - 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  client::TardisClientOptions opt;
  opt.endpoints.push_back("127.0.0.1:" +
                          std::to_string(daemon.client_port()));
  opt.request_deadline_ms = 500;
  opt.backoff_initial_ms = 20;
  opt.backoff_max_ms = 100;
  opt.seed = 42;
  client::TardisClient cli(std::move(opt));
  std::string reply;
  const uint64_t start = NowMillis();
  const Status s = cli.Call("ping", &reply);
  // The worker is pinned for 3 s but the client's own budget is 500 ms:
  // it must give up on time, not ride the daemon's schedule.
  EXPECT_FALSE(s.ok());
  EXPECT_LT(NowMillis() - start, 2500u);
  ::close(pin);
}

TEST(TardisClientDaemonTest, OutOfRangePortFlagIsAUsageError) {
  const char* bin = ::getenv("TARDISD_BIN");
  if (bin == nullptr || bin[0] == '\0') GTEST_SKIP() << "TARDISD_BIN not set";
  int probe = -1;
  const uint16_t repl_port = BindAny(&probe);
  ::close(probe);
  const std::string peers = "--peers=127.0.0.1:" + std::to_string(repl_port) +
                            ",127.0.0.1:" + std::to_string(repl_port + 1);
  // 70000 used to wrap to port 4464 and serve there, and the other
  // numeric flags went through atoi (--workers=abc ran one worker,
  // --request-deadline-ms=-5 wrapped to no deadline). Each is now refused
  // with the usage exit code before anything binds.
  for (const char* bad : {"--client-port=70000", "--workers=abc",
                          "--max-queue=12x", "--request-deadline-ms=-5",
                          "--heartbeats=2", "--site=99999999999"}) {
    // Every other flag is valid, so only `bad` can make the start fail.
    int port_probe = -1;
    const std::string client_port =
        "--client-port=" + std::to_string(BindAny(&port_probe));
    ::close(port_probe);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      freopen("/dev/null", "w", stdout);
      freopen("/dev/null", "w", stderr);
      execl(bin, "tardisd", "--site=0", peers.c_str(), client_port.c_str(),
            bad, static_cast<char*>(nullptr));
      _exit(127);
    }
    int status = 0;
    pid_t waited = 0;
    const uint64_t deadline = NowMillis() + 10'000;
    while ((waited = waitpid(pid, &status, WNOHANG)) == 0 &&
           NowMillis() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (waited == 0) {  // still serving: the flag was accepted
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      ADD_FAILURE() << "tardisd accepted " << bad;
      continue;
    }
    ASSERT_TRUE(WIFEXITED(status)) << bad << ": tardisd did not exit normally";
    EXPECT_EQ(WEXITSTATUS(status), 2) << bad;
  }
}

}  // namespace
}  // namespace tardis
