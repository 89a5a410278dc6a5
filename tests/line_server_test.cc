// server::LineServer (src/server/, DESIGN.md §6.3): the serving core of
// tardisd's client port and tardis-router, driven in-process over
// loopback with a scripted handler. Checks the contract both binaries
// rely on: in-order replies per connection, ERR BUSY on a full queue,
// ERR DEADLINE without running the handler, drain (and its budget), the
// 1 MiB line guard, the handler's close flag, trace-header binding and a
// second listen port served like the first.

#include "server/line_server.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "util/clock.h"

namespace tardis {
namespace server {
namespace {

/// Scripted handler state shared by every connection of one server:
/// "hold" blocks its worker until Release(); "quit" sets the close flag;
/// "shutdown" sets the shutdown flag; "trace" answers the bound trace id;
/// anything else is echoed back as "R <line>". Every line that reaches
/// the handler is logged.
class Script {
 public:
  LineReply Handle(const LineRequest& req) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      seen_.push_back(req.line);
      if (req.line == "hold") {
        holding_++;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    LineReply reply;
    if (req.line == "quit") {
      reply.text = "BYE";
      reply.close_conn = true;
    } else if (req.line == "shutdown") {
      reply.text = "BYE";
      reply.shutdown = true;
    } else if (req.line == "trace") {
      reply.text =
          "TRACE " + std::to_string(obs::CurrentTraceContext().trace_id);
    } else {
      reply.text = "R " + req.line;
    }
    return reply;
  }

  /// Waits until `n` "hold" requests are inside the handler.
  bool WaitHolding(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return holding_ >= n; });
  }

  void Release() {
    std::lock_guard<std::mutex> guard(mu_);
    released_ = true;
    cv_.notify_all();
  }

  std::vector<std::string> seen() {
    std::lock_guard<std::mutex> guard(mu_);
    return seen_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int holding_ = 0;
  bool released_ = false;
  std::vector<std::string> seen_;
};

/// A LineServer over the script, listening on an ephemeral port and
/// running on its own thread until the harness (or the test) drains it.
class Harness {
 public:
  explicit Harness(LineServerOptions options)
      : server_(options, [this] {
          return [this](const LineRequest& req) { return script_.Handle(req); };
        }) {
    EXPECT_TRUE(server_.Listen().ok());
    thread_ = std::thread([this] {
      server_.Run();
      std::lock_guard<std::mutex> guard(mu_);
      returned_ = true;
      cv_.notify_all();
    });
  }

  ~Harness() {
    script_.Release();
    server_.RequestDrain();
    thread_.join();
  }

  /// True once Run() has returned (waits up to `ms`).
  bool WaitReturned(uint64_t ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(ms),
                        [&] { return returned_; });
  }

  int Dial() const { return DialPort(server_.port()); }

  int DialPort(uint16_t port) const {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return -1;
    }
    return fd;
  }

  Script& script() { return script_; }
  LineServer& server() { return server_; }

 private:
  Script script_;
  LineServer server_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool returned_ = false;
  std::thread thread_;
};

LineServerOptions Options(uint32_t workers, size_t max_queue,
                          uint64_t deadline_ms) {
  LineServerOptions o;
  o.workers = workers;
  o.max_queue = max_queue;
  o.request_deadline_ms = deadline_ms;
  return o;
}

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed";
    off += static_cast<size_t>(n);
  }
}

/// Reads one '\n'-terminated line (without the newline). Returns "<EOF>"
/// when the server closed the connection and "<TIMEOUT>" after
/// timeout_ms. Bytes past the line stay in *buf for the next call.
std::string ReadLine(int fd, std::string* buf, uint64_t timeout_ms = 10'000) {
  const uint64_t deadline = NowMillis() + timeout_ms;
  while (true) {
    const size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      std::string line = buf->substr(0, nl);
      buf->erase(0, nl + 1);
      return line;
    }
    const uint64_t now = NowMillis();
    if (now >= deadline) return "<TIMEOUT>";
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(deadline - now)) <= 0) continue;
    char chunk[4096];
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) return "<EOF>";
    buf->append(chunk, static_cast<size_t>(n));
  }
}

bool WaitUntil(const std::function<bool()>& cond) {
  const uint64_t deadline = NowMillis() + 10'000;
  while (!cond()) {
    if (NowMillis() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(LineServerTest, PipelinedLinesAnsweredInOrder) {
  Harness h(Options(4, 128, 0));
  const int fd = h.Dial();
  ASSERT_GE(fd, 0);
  std::string batch;
  for (int i = 0; i < 50; i++) batch += "l" + std::to_string(i) + "\r\n";
  batch += "\n";  // empty lines are skipped, not answered
  SendAll(fd, batch);
  std::string buf;
  for (int i = 0; i < 50; i++) {
    EXPECT_EQ(ReadLine(fd, &buf), "R l" + std::to_string(i));
  }
  close(fd);
}

TEST(LineServerTest, FullQueueAnswersBusy) {
  Harness h(Options(1, 1, 0));
  const int holder = h.Dial();
  const int queued = h.Dial();
  const int shed = h.Dial();
  ASSERT_GE(holder, 0);
  ASSERT_GE(queued, 0);
  ASSERT_GE(shed, 0);
  SendAll(holder, "hold\n");
  ASSERT_TRUE(h.script().WaitHolding(1));
  SendAll(queued, "waits\n");
  ASSERT_TRUE(WaitUntil([&] { return h.server().queue_depth() == 1; }));
  SendAll(shed, "refused\n");
  std::string buf_shed;
  EXPECT_EQ(ReadLine(shed, &buf_shed), "ERR BUSY queue full; retry");
  EXPECT_EQ(h.server().shed_total(), 1u);

  h.script().Release();
  std::string buf_holder, buf_queued;
  EXPECT_EQ(ReadLine(holder, &buf_holder), "R hold");
  EXPECT_EQ(ReadLine(queued, &buf_queued), "R waits");
  for (const std::string& line : h.script().seen()) {
    EXPECT_NE(line, "refused");  // a shed request never runs
  }
  close(holder);
  close(queued);
  close(shed);
}

TEST(LineServerTest, OverAgeRequestGetsDeadlineAndNeverRuns) {
  Harness h(Options(1, 8, 100));
  const int holder = h.Dial();
  const int victim = h.Dial();
  ASSERT_GE(holder, 0);
  ASSERT_GE(victim, 0);
  SendAll(holder, "hold\n");
  ASSERT_TRUE(h.script().WaitHolding(1));
  SendAll(victim, "too-late\n");
  ASSERT_TRUE(WaitUntil([&] { return h.server().queue_depth() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  h.script().Release();

  std::string buf;
  EXPECT_EQ(ReadLine(victim, &buf),
            "ERR DEADLINE request expired in queue; retry");
  EXPECT_EQ(h.server().expired_total(), 1u);
  for (const std::string& line : h.script().seen()) {
    EXPECT_NE(line, "too-late");
  }
  // The connection stays usable: a fresh request runs normally.
  SendAll(victim, "again\n");
  EXPECT_EQ(ReadLine(victim, &buf), "R again");
  close(holder);
  close(victim);
}

TEST(LineServerTest, DrainFinishesInFlightRefusesNewAndReturns) {
  Harness h(Options(1, 8, 0));
  const int holder = h.Dial();
  const int late = h.Dial();
  ASSERT_GE(holder, 0);
  ASSERT_GE(late, 0);
  SendAll(holder, "hold\n");
  ASSERT_TRUE(h.script().WaitHolding(1));
  h.server().RequestDrain();
  ASSERT_TRUE(WaitUntil([&] { return h.server().draining(); }));

  SendAll(late, "new\n");
  std::string buf_late;
  EXPECT_EQ(ReadLine(late, &buf_late),
            "ERR SHUTTING_DOWN site draining; retry elsewhere");
  EXPECT_FALSE(h.WaitReturned(50));  // the in-flight request holds it open

  h.script().Release();
  std::string buf_holder;
  EXPECT_EQ(ReadLine(holder, &buf_holder), "R hold");
  EXPECT_TRUE(h.WaitReturned(5'000));
  // The listener is gone.
  EXPECT_LT(h.Dial(), 0);
  close(holder);
  close(late);
}

TEST(LineServerTest, HandlerShutdownFlagDrains) {
  Harness h(Options(2, 8, 0));
  const int fd = h.Dial();
  ASSERT_GE(fd, 0);
  SendAll(fd, "shutdown\n");
  std::string buf;
  EXPECT_EQ(ReadLine(fd, &buf), "BYE");
  EXPECT_TRUE(h.WaitReturned(5'000));
  EXPECT_TRUE(h.server().draining());
  close(fd);
}

TEST(LineServerTest, OverlongLineGetsErrorAndClose) {
  Harness h(Options(1, 8, 0));
  const int fd = h.Dial();
  ASSERT_GE(fd, 0);
  // One byte past the 1 MiB guard, no newline. Nothing is left unread
  // when the server closes, so the close is a clean EOF.
  SendAll(fd, std::string((1u << 20) + 1, 'x'));
  std::string buf;
  EXPECT_EQ(ReadLine(fd, &buf), "ERR line too long");
  EXPECT_EQ(ReadLine(fd, &buf), "<EOF>");
  EXPECT_TRUE(h.script().seen().empty());
  close(fd);
}

TEST(LineServerTest, CloseFlagClosesAfterTheReply) {
  Harness h(Options(2, 8, 0));
  const int fd = h.Dial();
  ASSERT_GE(fd, 0);
  SendAll(fd, "before\nquit\nafter\n");
  std::string buf;
  EXPECT_EQ(ReadLine(fd, &buf), "R before");
  EXPECT_EQ(ReadLine(fd, &buf), "BYE");
  EXPECT_EQ(ReadLine(fd, &buf), "<EOF>");
  for (const std::string& line : h.script().seen()) {
    EXPECT_NE(line, "after");  // nothing runs after the close flag
  }
  close(fd);
}

TEST(LineServerTest, TraceHeaderIsStrippedAndBound) {
  Harness h(Options(1, 8, 0));
  const int fd = h.Dial();
  ASSERT_GE(fd, 0);
  SendAll(fd, "*T1a2b/3c/1 trace\ntrace\n");
  std::string buf;
  EXPECT_EQ(ReadLine(fd, &buf), "TRACE " + std::to_string(0x1a2b));
  EXPECT_EQ(ReadLine(fd, &buf), "TRACE 0");  // no header, nothing bound
  const std::vector<std::string> seen = h.script().seen();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "trace");
  close(fd);
}

// Past the 10 s drain budget, a request still queued is answered
// ERR SHUTTING_DOWN instead of being run or dropped, and a handler still
// running past the budget gets its reply written before Run() returns.
TEST(LineServerTest, DrainBudgetRefusesQueuedAndDeliversRunningReply) {
  Harness h(Options(1, 8, 0));
  const int holder = h.Dial();
  const int queued = h.Dial();
  ASSERT_GE(holder, 0);
  ASSERT_GE(queued, 0);
  SendAll(holder, "hold\n");
  ASSERT_TRUE(h.script().WaitHolding(1));
  SendAll(queued, "waits\n");
  ASSERT_TRUE(WaitUntil([&] { return h.server().queue_depth() == 1; }));
  const uint64_t drain_start = NowMillis();
  h.server().RequestDrain();

  std::string buf_queued;
  EXPECT_EQ(ReadLine(queued, &buf_queued, 20'000),
            "ERR SHUTTING_DOWN site draining; retry elsewhere");
  EXPECT_GE(NowMillis() - drain_start, 9'000u);  // only once the budget ends
  EXPECT_FALSE(h.WaitReturned(200));  // the running handler holds Run()

  h.script().Release();
  std::string buf_holder;
  EXPECT_EQ(ReadLine(holder, &buf_holder), "R hold");
  EXPECT_TRUE(h.WaitReturned(5'000));
  for (const std::string& line : h.script().seen()) {
    EXPECT_NE(line, "waits");  // refused, never run
  }
  close(holder);
  close(queued);
}

// One server on two ports: both accept, share the queue and workers, and
// a drain closes both listeners.
TEST(LineServerTest, SecondPortIsServedLikeTheFirst) {
  LineServerOptions o = Options(2, 8, 0);
  int probe = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  close(probe);
  o.second_port = ntohs(addr.sin_port);
  Harness h(o);
  ASSERT_EQ(h.server().second_port(), o.second_port);
  const int first = h.Dial();
  const int second = h.DialPort(h.server().second_port());
  ASSERT_GE(first, 0);
  ASSERT_GE(second, 0);
  SendAll(first, "one\n");
  SendAll(second, "two\n");
  std::string buf_first, buf_second;
  EXPECT_EQ(ReadLine(first, &buf_first), "R one");
  EXPECT_EQ(ReadLine(second, &buf_second), "R two");

  h.server().RequestDrain();
  EXPECT_TRUE(h.WaitReturned(5'000));
  EXPECT_LT(h.Dial(), 0);
  EXPECT_LT(h.DialPort(o.second_port), 0);
  close(first);
  close(second);
}

}  // namespace
}  // namespace server
}  // namespace tardis
