// tardisd_driver: end-to-end harness for the tardisd site daemon. Spawns
// three tardisd processes on 127.0.0.1, then drives the paper's canonical
// branch-and-merge scenario across real OS processes and real sockets:
//
//   1. a commit at site 0 gossips to every site;
//   2. sites 0 and 1 are partitioned from each other (but not from site
//      2) and both update the same counter -> the State DAG forks;
//   3. the partition heals, recovery sync exchanges the missed commits,
//      every site holds both branches;
//   4. site 0 runs a counter-delta merge transaction; the merge commit
//      replicates and every site converges to the same single leaf;
//   5. the metrics registry must reflect the lifecycle: site 0 reports
//      nonzero fork and merge counters, over the line protocol and over
//      the --metrics-port HTTP endpoint;
//   6. a hostile client spews garbage at a replication port — the daemon
//      must shrug it off (frame CRC + bounds-checked decode);
//   7. `health` reports per-peer liveness; killing site 2 flips it to
//      dead at the survivors, and a BLANK restart of site 2 reconverges
//      via heartbeat-driven anti-entropy / snapshot bootstrap with NO
//      manual sync (the fleet runs --archive-horizon=2, so the survivors
//      have trimmed their gossip archives and must ship a snapshot);
//   8. an overloaded daemon (1 worker, queue of 1) sheds with a
//      retryable "ERR BUSY", expires queued work past the request
//      deadline with "ERR DEADLINE", and a backoff-retry client still
//      gets through;
//   9. SIGTERM drains gracefully: exit code 0, and a committed-right-
//      before-the-signal key survives a restart from the same --dir;
//  10. exactly-once client sessions (DESIGN.md §13): a duplicate
//      sessioned put answers from the dedup table with the identical
//      state id, a SIGKILLed site fails over with session floors intact,
//      an uncoverable floor yields ERR BEHIND while stale-ok serves the
//      degraded read, and a crash-restarted site still dedups the
//      original request after commit-log replay.
//
// Exit code 0 iff the full scenario converges. Used by ctest as the
// cross-process acceptance test and runnable by hand:
//
//   tardisd_driver --tardisd=./examples/tardisd [--verbose]
//
// With --grid (and --router=PATH) it instead runs the partitioned-
// cluster acceptance (DESIGN.md §10): a 2-partition × 3-site grid
// behind a stateless tardis-router — fast-path routing with zero 2PC
// frames, a cross-partition 2PC commit, a chaos-injected conflict that
// FORKS the affected partition's DAG and is merged back, and a router
// SIGKILLed between prepare and decide whose in-doubt transaction the
// participants resolve cooperatively, with no acknowledged write lost,
// then the router's deadline refusal and SIGTERM drain mid-2PC:
//
//   tardisd_driver --tardisd=./examples/tardisd
//                  --router=./examples/tardis_router --grid
//
// With --trace (plus --router and --tracectl=PATH) it runs the
// distributed-tracing acceptance (DESIGN.md §7): trace start/sample
// through the router, a cross-partition mput under a driver-chosen
// trace id, a stitched Chrome trace — via the router's `trace collect`
// AND tardis-tracectl — in which that id spans at least 3 processes,
// and a `metrics cluster` merge carrying every process's stage
// histograms:
//
//   tardisd_driver --tardisd=./examples/tardisd
//                  --router=./examples/tardis_router
//                  --tracectl=./examples/tardis_tracectl --trace

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/tardis_client.h"
#include "core/session.h"

namespace {

bool g_verbose = false;
std::vector<pid_t>* g_fleet_pids = nullptr;

[[noreturn]] void Die(const std::string& msg) {
  fprintf(stderr, "tardisd_driver: FAIL: %s\n", msg.c_str());
  // exit() skips destructors; reap the daemons so they don't hold the
  // harness's output pipe open past our exit.
  if (g_fleet_pids != nullptr) {
    for (pid_t pid : *g_fleet_pids) {
      if (pid > 0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
    }
  }
  exit(1);
}

/// A port that was free a moment ago. The probe socket is closed before a
/// daemon binds the port, so the kernel may hand the same port out again:
/// never return one this process already handed out.
uint16_t PickFreePort() {
  static std::set<uint16_t> handed_out;
  while (true) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("bind for port probe failed");
    }
    socklen_t len = sizeof(addr);
    getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    close(fd);
    const uint16_t port = ntohs(addr.sin_port);
    if (handed_out.insert(port).second) return port;
  }
}

int ConnectTo(uint16_t port, uint64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // No reply takes this long: a stuck daemon (or a foreign listener
      // on a port that lost a race) fails the run instead of hanging it.
      timeval reply_timeout{30, 0};
      setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &reply_timeout,
                 sizeof(reply_timeout));
      return fd;
    }
    close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

/// One line out, one line back.
std::string Cmd(int fd, const std::string& line) {
  const std::string out = line + "\n";
  if (write(fd, out.data(), out.size()) != static_cast<ssize_t>(out.size())) {
    Die("short write on client connection");
  }
  std::string reply;
  char c;
  while (true) {
    const ssize_t n = read(fd, &c, 1);
    if (n <= 0) Die("daemon closed connection during '" + line + "'");
    if (c == '\n') break;
    reply.push_back(c);
  }
  if (g_verbose) printf("  [%s] -> %s\n", line.c_str(), reply.c_str());
  return reply;
}

/// One line out, lines back until the "END" terminator (the `metrics`,
/// `stats` and `health` commands). Returns the body without the
/// terminator.
std::string CmdMulti(int fd, const std::string& line) {
  const std::string out = line + "\n";
  if (write(fd, out.data(), out.size()) != static_cast<ssize_t>(out.size())) {
    Die("short write on client connection");
  }
  std::string body, cur;
  char c;
  while (true) {
    const ssize_t n = read(fd, &c, 1);
    if (n <= 0) Die("daemon closed connection during '" + line + "'");
    if (c != '\n') {
      cur.push_back(c);
      continue;
    }
    if (cur == "END") break;
    body += cur;
    body.push_back('\n');
    cur.clear();
  }
  if (g_verbose) printf("  [%s] -> %zu bytes\n", line.c_str(), body.size());
  return body;
}

/// Retryable-aware request through the real client library (src/client/,
/// DESIGN.md §13): TardisClient resends on the daemon's retryable errors
/// ("ERR BUSY"/"ERR DEADLINE"/"ERR SHUTTING_DOWN"/"ERR BEHIND") with
/// jittered backoff, so the driver exercises the same retry
/// implementation users get instead of a parallel ad-hoc loop. Returns
/// the first non-retryable reply, or the client's error once the
/// deadline is exhausted.
std::string CmdRetry(uint16_t port, const std::string& line,
                     uint64_t timeout_ms = 15'000) {
  tardis::client::TardisClientOptions opt;
  opt.endpoints.push_back("127.0.0.1:" + std::to_string(port));
  opt.request_deadline_ms = timeout_ms;
  tardis::client::TardisClient cli(std::move(opt));
  std::string reply;
  const tardis::Status s = cli.Call(line, &reply);
  if (!s.ok()) reply = "ERR " + s.ToString();
  if (g_verbose) printf("  [retry %s] -> %s\n", line.c_str(), reply.c_str());
  return reply;
}

/// Value of one specific series in a Prometheus text dump, label set and
/// all: `series` is the full left-hand side, e.g.
/// `tardis_router_requests{path="fast"}`. -1 when absent.
long long MetricSeries(const std::string& dump, const std::string& series) {
  size_t pos = 0;
  while ((pos = dump.find(series, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || dump[pos - 1] == '\n';
    const size_t end = pos + series.size();
    if (!line_start || end >= dump.size() || dump[end] != ' ') {
      pos = end;
      continue;
    }
    return atoll(dump.c_str() + end + 1);
  }
  return -1;
}

/// Value of a `field=<n>` token in a health dump (e.g. twopc_in_doubt);
/// -1 when absent.
long long HealthField(const std::string& health, const std::string& field) {
  const std::string needle = " " + field + "=";
  const size_t pos = health.find(needle);
  if (pos == std::string::npos) return -1;
  return atoll(health.c_str() + pos + needle.size());
}

/// Value of `name{...}` in a Prometheus text dump; -1 when the series is
/// absent. Matches any label set — the driver only checks one site's dump.
long long MetricValue(const std::string& dump, const std::string& name) {
  size_t pos = 0;
  while ((pos = dump.find(name, pos)) != std::string::npos) {
    // Reject prefix matches (tardis_txn_forks_total vs ..._total_foo) and
    // mid-line hits (HELP/TYPE lines start with '#').
    const bool line_start = pos == 0 || dump[pos - 1] == '\n';
    const size_t end = pos + name.size();
    const char next = end < dump.size() ? dump[end] : '\n';
    if (!line_start || (next != '{' && next != ' ')) {
      pos = end;
      continue;
    }
    const size_t sp = dump.find(' ', end);
    if (sp == std::string::npos) return -1;
    return atoll(dump.c_str() + sp + 1);
  }
  return -1;
}

bool WaitFor(const std::function<bool()>& cond, uint64_t timeout_ms = 15'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

/// Does the `health` dump report `PEER <site> state=<state>`?
bool HealthPeerState(const std::string& health, uint32_t site,
                     const std::string& state) {
  const std::string needle =
      "PEER " + std::to_string(site) + " state=" + state;
  return health.find(needle) != std::string::npos;
}

struct Fleet {
  std::vector<pid_t> pids;
  std::vector<int> conns;          // client connections, by site
  std::vector<uint16_t> repl_ports;
  std::vector<uint16_t> client_ports;
  std::vector<uint16_t> metrics_ports;
  std::string peers_flag;          // shared --peers list
  std::vector<std::string> extra_args;
  // Flags only some sites get (index = site), e.g. the one site per
  // partition group that serves the coordination port.
  std::vector<std::vector<std::string>> per_site_extra;

  ~Fleet() {
    for (int fd : conns) {
      if (fd >= 0) close(fd);
    }
    for (pid_t pid : pids) {
      if (pid > 0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
    }
  }
};

pid_t SpawnOne(const std::string& tardisd, const Fleet& fleet, size_t site) {
  // The child inherits our buffered stdout; flush so its exit-time flush
  // does not replay our progress lines.
  fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    std::vector<std::string> args;
    args.push_back("tardisd");
    args.push_back("--site=" + std::to_string(site));
    args.push_back("--peers=" + fleet.peers_flag);
    args.push_back("--client-port=" + std::to_string(fleet.client_ports[site]));
    args.push_back("--metrics-port=" +
                   std::to_string(fleet.metrics_ports[site]));
    for (const std::string& extra : fleet.extra_args) {
      // A per-site data directory: "--dir=BASE" becomes "--dir=BASE/siteN".
      if (extra.rfind("--dir=", 0) == 0) {
        args.push_back(extra + "/site" + std::to_string(site));
      } else {
        args.push_back(extra);
      }
    }
    if (site < fleet.per_site_extra.size()) {
      for (const std::string& extra : fleet.per_site_extra[site]) {
        args.push_back(extra);
      }
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (!g_verbose) {
      freopen("/dev/null", "w", stdout);
    }
    execv(tardisd.c_str(), argv.data());
    fprintf(stderr, "exec %s failed: %s\n", tardisd.c_str(), strerror(errno));
    _exit(127);
  }
  return pid;
}

/// Connects to a freshly spawned daemon's client port; -1 as soon as the
/// daemon exits instead of coming up (then it is reaped and *pid is -1).
int ConnectToSpawned(pid_t* pid, uint16_t port, uint64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const int fd = ConnectTo(port, 100);
    if (fd >= 0) return fd;
    if (waitpid(*pid, nullptr, WNOHANG) == *pid) {
      *pid = -1;
      return -1;
    }
  }
  return -1;
}

void SpawnFleet(const std::string& tardisd, size_t n,
                std::vector<std::string> extra_args, Fleet* fleet) {
  fleet->extra_args = std::move(extra_args);
  // A daemon exits at start-up when one of its ports was taken between the
  // probe and its bind (e.g. by a peer's outgoing connection). That is a
  // race of this harness, not of the daemon: reap the whole fleet and start
  // it again on fresh ports, a few times at most.
  for (int attempt = 1;; attempt++) {
    for (size_t i = 0; i < n; i++) {
      fleet->repl_ports.push_back(PickFreePort());
      fleet->client_ports.push_back(PickFreePort());
      fleet->metrics_ports.push_back(PickFreePort());
      if (i) fleet->peers_flag += ",";
      fleet->peers_flag += "127.0.0.1:" + std::to_string(fleet->repl_ports[i]);
    }
    for (size_t i = 0; i < n; i++) {
      fleet->pids.push_back(SpawnOne(tardisd, *fleet, i));
    }
    size_t down = n;
    for (size_t i = 0; i < n; i++) {
      const int fd =
          ConnectToSpawned(&fleet->pids[i], fleet->client_ports[i], 10'000);
      if (fd < 0) {
        down = i;
        break;
      }
      fleet->conns.push_back(fd);
    }
    if (down == n) return;
    // Reap before dying too: Die only knows the fleets already registered,
    // and a leftover daemon would hold the harness's output pipe open.
    for (int fd : fleet->conns) close(fd);
    for (pid_t pid : fleet->pids) {
      if (pid > 0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
    }
    fleet->pids.clear();
    fleet->conns.clear();
    fleet->repl_ports.clear();
    fleet->client_ports.clear();
    fleet->metrics_ports.clear();
    fleet->peers_flag.clear();
    if (attempt == 3) Die("site " + std::to_string(down) + " never came up");
    fprintf(stderr, "tardisd_driver: site %zu did not come up; respawning "
                    "the fleet on fresh ports\n", down);
  }
}

/// Plain HTTP/1.0 GET against a daemon's --metrics-port; returns the body.
std::string HttpGetMetrics(uint16_t port) {
  const int fd = ConnectTo(port, 5'000);
  if (fd < 0) Die("could not connect to metrics port");
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  if (write(fd, req, sizeof(req) - 1) != static_cast<ssize_t>(sizeof(req) - 1)) {
    Die("short write on metrics connection");
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  const size_t body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    Die("metrics endpoint returned a malformed response");
  }
  return resp.substr(body + 4);
}

void FuzzReplicationPort(uint16_t port) {
  // Garbage bytes, then a hostile length prefix claiming a 4 GiB frame.
  const int fd = ConnectTo(port, 5'000);
  if (fd < 0) Die("could not connect to replication port for fuzzing");
  std::string junk(8192, '\xd6');
  for (size_t i = 0; i < junk.size(); i++) {
    junk[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  memset(junk.data(), 0xFF, 4);  // length prefix = 0xFFFFFFFF
  (void)!write(fd, junk.data(), junk.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  close(fd);
}

/// Phases 1–7: branch-and-merge over TCP, then the resilience layer —
/// liveness in `health`, crash of site 2, blank-restart convergence with
/// no manual sync.
int RunConvergence(const std::string& tardisd) {
  Fleet fleet;
  // Tiny archive horizon: by the time site 2 is crashed and restarted
  // blank, the survivors have trimmed their gossip archives past the
  // early commits, so reconvergence MUST go through the snapshot
  // bootstrap path, not just commit replay.
  SpawnFleet(tardisd, 3, {"--archive-horizon=2"}, &fleet);
  g_fleet_pids = &fleet.pids;
  auto at = [&](size_t site, const std::string& line) {
    return Cmd(fleet.conns[site], line);
  };

  // Everyone alive, and every dialed replication connection established?
  // Gossip tolerates drops by design, so a commit broadcast before the
  // mesh is up would silently miss its peers.
  for (size_t i = 0; i < 3; i++) {
    if (at(i, "ping") != "PONG") Die("site did not answer ping");
  }
  if (!WaitFor([&] {
        for (size_t i = 0; i < 3; i++) {
          if (at(i, "peers") != "PEERS 2") return false;
        }
        return true;
      })) {
    Die("replication mesh never fully connected");
  }
  printf("== 3 tardisd processes up, replication mesh connected\n");

  // 1. One commit gossips everywhere.
  if (at(0, "put cnt 5") != "OK") Die("put at site 0 failed");
  if (!WaitFor([&] {
        return at(1, "get cnt") == "VALUE 5" && at(2, "get cnt") == "VALUE 5";
      })) {
    Die("initial commit did not replicate to all sites");
  }
  printf("== initial commit replicated to all sites\n");

  // 2. Cut 0<->1 (both endpoints) and write concurrently: the DAG forks.
  at(0, "isolate 1");
  at(1, "isolate 0");
  if (at(0, "put cnt 6") != "OK") Die("put at site 0 failed");
  if (at(1, "put cnt 7") != "OK") Die("put at site 1 failed");
  // Site 2 talks to both writers, so it sees the fork first.
  if (!WaitFor([&] { return at(2, "leaves") == "LEAVES 2"; })) {
    Die("site 2 never saw both branches");
  }
  printf("== concurrent writes during partition: site 2 forked\n");

  // 3. Heal: automatic anti-entropy (heartbeat digests) exchanges the
  // missed commits with no manual sync. Every site holds both branches.
  at(0, "heal");
  at(1, "heal");
  if (!WaitFor([&] {
        return at(0, "leaves") == "LEAVES 2" && at(1, "leaves") == "LEAVES 2";
      })) {
    Die("branches did not propagate after heal");
  }
  printf("== partition healed, anti-entropy spread both branches\n");

  // 4. Counter-delta merge at site 0: 5 + (6-5) + (7-5) = 8 everywhere.
  const std::string merged = at(0, "merge counter");
  if (merged != "MERGED 2") Die("merge failed: " + merged);
  for (size_t i = 0; i < 3; i++) {
    const size_t site = i;
    if (!WaitFor([&] {
          return at(site, "leaves") == "LEAVES 1" &&
                 at(site, "get cnt") == "VALUE 8";
        })) {
      Die("site " + std::to_string(site) + " did not converge to merged 8");
    }
  }
  printf("== merge replicated: all 3 sites converged on cnt=8, one leaf\n");

  // 5. The registry must have watched all of it happen. Site 0 committed
  // the merge itself; its branch forked when site 1's concurrent write
  // arrived, so both lifecycle counters are nonzero. Check the line
  // protocol first, then the same series over HTTP.
  const std::string dump = CmdMulti(fleet.conns[0], "metrics");
  if (MetricValue(dump, "tardis_txn_forks_total") < 1) {
    Die("site 0 metrics: tardis_txn_forks_total not >= 1\n" + dump);
  }
  if (MetricValue(dump, "tardis_txn_merges_total") < 1) {
    Die("site 0 metrics: tardis_txn_merges_total not >= 1\n" + dump);
  }
  if (MetricValue(dump, "tardis_repl_applied_total") < 1) {
    Die("site 0 metrics: tardis_repl_applied_total not >= 1\n" + dump);
  }
  if (MetricValue(dump, "tardis_dag_leaves") != 1) {
    Die("site 0 metrics: tardis_dag_leaves != 1\n" + dump);
  }
  if (MetricValue(dump, "tardis_repl_heartbeats_sent_total") < 1) {
    Die("site 0 metrics: tardis_repl_heartbeats_sent_total not >= 1\n" + dump);
  }
  const std::string table = CmdMulti(fleet.conns[0], "stats");
  if (table.find("tardis_txn_commits_total") == std::string::npos) {
    Die("stats table missing tardis_txn_commits_total\n" + table);
  }
  const std::string http = HttpGetMetrics(fleet.metrics_ports[0]);
  if (MetricValue(http, "tardis_txn_commits_total") < 1 ||
      MetricValue(http, "tardis_txn_forks_total") < 1) {
    Die("HTTP metrics endpoint missing txn counters\n" + http);
  }
  printf("== metrics reflect the lifecycle: forks>=1, merges>=1, "
         "served over line protocol and HTTP\n");

  // 6. Fuzz a replication port; the daemon must survive and keep serving.
  FuzzReplicationPort(fleet.repl_ports[0]);
  if (at(0, "ping") != "PONG" || at(0, "get cnt") != "VALUE 8") {
    Die("site 0 unhealthy after garbage frames");
  }
  printf("== site 0 survived garbage frames on its replication port\n");

  // 7. Resilience: health shows live peers; a SIGKILLed site flips to
  // dead at the survivors; a blank restart reconverges automatically.
  if (!WaitFor([&] {
        const std::string h = CmdMulti(fleet.conns[0], "health");
        return h.find("SITE 0") != std::string::npos &&
               HealthPeerState(h, 1, "alive") &&
               HealthPeerState(h, 2, "alive") &&
               h.find("FLOOR ") != std::string::npos;
      })) {
    Die("health at site 0 never showed both peers alive:\n" +
        CmdMulti(fleet.conns[0], "health"));
  }
  kill(fleet.pids[2], SIGKILL);
  waitpid(fleet.pids[2], nullptr, 0);
  fleet.pids[2] = -1;
  close(fleet.conns[2]);
  fleet.conns[2] = -1;
  if (!WaitFor([&] {
        return HealthPeerState(CmdMulti(fleet.conns[0], "health"), 2, "dead") &&
               HealthPeerState(CmdMulti(fleet.conns[1], "health"), 2, "dead");
      })) {
    Die("survivors never marked crashed site 2 dead");
  }
  printf("== site 2 SIGKILLed, survivors report it dead via health\n");

  // More commits while site 2 is down; with --archive-horizon=2 these
  // push the early history out of the survivors' archives.
  for (int i = 0; i < 8; i++) {
    if (at(0, "put k" + std::to_string(i) + " v" + std::to_string(i)) != "OK") {
      Die("put during site-2 downtime failed");
    }
  }
  if (!WaitFor([&] { return at(1, "get k7") == "VALUE v7"; })) {
    Die("survivor gossip stalled while site 2 was down");
  }

  // Blank restart (no --dir: the daemon starts with an empty store). It
  // must catch up purely from heartbeat-driven anti-entropy — the driver
  // never sends `sync`. The early commits are past the survivors'
  // archive horizon, so a snapshot must be shipped.
  fleet.pids[2] = SpawnOne(tardisd, fleet, 2);
  fleet.conns[2] = ConnectTo(fleet.client_ports[2], 10'000);
  if (fleet.conns[2] < 0) Die("site 2 did not come back up");
  if (!WaitFor(
          [&] {
            return at(2, "get cnt") == "VALUE 8" &&
                   at(2, "get k7") == "VALUE v7" &&
                   at(2, "leaves") == "LEAVES 1";
          },
          30'000)) {
    Die("blank-restarted site 2 did not reconverge via anti-entropy:\n" +
        CmdMulti(fleet.conns[2], "health"));
  }
  if (!WaitFor([&] {
        return HealthPeerState(CmdMulti(fleet.conns[0], "health"), 2, "alive");
      })) {
    Die("survivors never marked restarted site 2 alive again");
  }
  const std::string m0 = CmdMulti(fleet.conns[0], "metrics");
  const std::string m1 = CmdMulti(fleet.conns[1], "metrics");
  if (MetricValue(m0, "tardis_repl_snapshots_sent_total") < 1 &&
      MetricValue(m1, "tardis_repl_snapshots_sent_total") < 1) {
    Die("no survivor shipped a snapshot to the blank site:\n" + m0 + m1);
  }
  printf("== blank restart of site 2 reconverged with no manual sync "
         "(snapshot bootstrap + anti-entropy)\n");

  for (size_t i = 0; i < 3; i++) at(i, "shutdown");
  g_fleet_pids = nullptr;
  return 0;
}

/// Phases 8–9 on a dedicated 2-site fleet tuned to be trivially
/// overloadable (1 worker, queue of 1) and durable (--dir).
int RunOverloadAndDrain(const std::string& tardisd, const std::string& dir) {
  Fleet fleet;
  SpawnFleet(tardisd, 2,
             {"--workers=1", "--max-queue=1", "--request-deadline-ms=1000",
              "--dir=" + dir},
             &fleet);
  g_fleet_pids = &fleet.pids;
  if (Cmd(fleet.conns[0], "ping") != "PONG") Die("overload fleet: no ping");

  // 8a. Shedding. Connection A pins the only worker; B's request fills
  // the queue; C must be shed with a retryable BUSY, and a retrying
  // client eventually gets through.
  const int conn_a = ConnectTo(fleet.client_ports[0], 5'000);
  const int conn_b = ConnectTo(fleet.client_ports[0], 5'000);
  const int conn_c = ConnectTo(fleet.client_ports[0], 5'000);
  if (conn_a < 0 || conn_b < 0 || conn_c < 0) Die("overload conns failed");
  const char sleep_cmd[] = "sleep 700\n";
  if (write(conn_a, sleep_cmd, sizeof(sleep_cmd) - 1) !=
      static_cast<ssize_t>(sizeof(sleep_cmd) - 1)) {
    Die("short write of sleep command");
  }
  // Give the worker a moment to pick the sleep off the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const char ping_cmd[] = "ping\n";
  if (write(conn_b, ping_cmd, sizeof(ping_cmd) - 1) !=
      static_cast<ssize_t>(sizeof(ping_cmd) - 1)) {
    Die("short write of queued ping");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string busy = Cmd(conn_c, "ping");
  if (busy.rfind("ERR BUSY", 0) != 0) {
    Die("expected ERR BUSY from saturated daemon, got: " + busy);
  }
  const std::string retried = CmdRetry(fleet.client_ports[0], "ping");
  if (retried != "PONG") Die("retry after BUSY failed: " + retried);
  // B's queued ping waited < deadline, so it must have been served.
  std::string reply_b;
  {
    char c;
    while (read(conn_b, &c, 1) == 1 && c != '\n') reply_b.push_back(c);
  }
  if (reply_b != "PONG") Die("queued request not served: " + reply_b);
  // Drain A's OK.
  {
    char c;
    std::string reply_a;
    while (read(conn_a, &c, 1) == 1 && c != '\n') reply_a.push_back(c);
    if (reply_a != "OK") Die("sleep command reply: " + reply_a);
  }
  printf("== overload: daemon shed with ERR BUSY, retry got through\n");

  // 8b. Deadline expiry: pin the worker for longer than the request
  // deadline; the queued request must be answered ERR DEADLINE without
  // executing, and a retry succeeds.
  const char long_sleep[] = "sleep 1500\n";
  if (write(conn_a, long_sleep, sizeof(long_sleep) - 1) !=
      static_cast<ssize_t>(sizeof(long_sleep) - 1)) {
    Die("short write of long sleep");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string expired = Cmd(conn_b, "ping");
  if (expired.rfind("ERR DEADLINE", 0) != 0) {
    Die("expected ERR DEADLINE for over-age queued request, got: " + expired);
  }
  if (CmdRetry(fleet.client_ports[0], "ping") != "PONG") {
    Die("retry after DEADLINE failed");
  }
  {
    char c;
    std::string reply_a;
    while (read(conn_a, &c, 1) == 1 && c != '\n') reply_a.push_back(c);
    if (reply_a != "OK") Die("long sleep reply: " + reply_a);
  }
  const std::string health = CmdMulti(fleet.conns[0], "health");
  if (health.find("shed=0 ") != std::string::npos ||
      health.find("expired=0 ") != std::string::npos) {
    Die("health did not count shed/expired requests:\n" + health);
  }
  close(conn_a);
  close(conn_b);
  close(conn_c);
  printf("== overload: queued request past deadline got ERR DEADLINE\n");

  // 9. Graceful drain. Commit a key, SIGTERM the daemon, require exit
  // code 0, then restart from the same --dir and read the key back —
  // committed transactions survive the drain.
  if (Cmd(fleet.conns[0], "put durable 42") != "OK") Die("durable put failed");
  kill(fleet.pids[0], SIGTERM);
  int status = 0;
  const pid_t reaped = waitpid(fleet.pids[0], &status, 0);
  if (reaped != fleet.pids[0] || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Die("SIGTERM drain did not exit 0 (status=" + std::to_string(status) +
        ")");
  }
  fleet.pids[0] = -1;
  close(fleet.conns[0]);
  printf("== SIGTERM: daemon drained and exited 0\n");

  fleet.pids[0] = SpawnOne(tardisd, fleet, 0);
  fleet.conns[0] = ConnectTo(fleet.client_ports[0], 10'000);
  if (fleet.conns[0] < 0) Die("site 0 did not restart after drain");
  const std::string value = CmdRetry(fleet.client_ports[0], "get durable");
  if (value != "VALUE 42") {
    Die("committed key lost across SIGTERM drain: " + value);
  }
  printf("== restart from --dir: committed key survived the drain\n");

  Cmd(fleet.conns[0], "shutdown");
  Cmd(fleet.conns[1], "shutdown");
  g_fleet_pids = nullptr;
  return 0;
}

/// Drops a leading `*F` floor token so sessioned replies can be compared
/// across requests (the floors advance, the verdict must not).
std::string StripFloor(std::string reply) {
  if (reply.rfind("*F", 0) == 0) {
    const size_t sp = reply.find(' ');
    reply.erase(0, sp == std::string::npos ? reply.size() : sp + 1);
  }
  return reply;
}

long long StatesCount(int fd) {
  const std::string reply = Cmd(fd, "states");
  if (reply.rfind("STATES ", 0) != 0) Die("states reply: " + reply);
  return atoll(reply.c_str() + 7);
}

/// 10. Exactly-once client sessions (DESIGN.md §13): SIGKILL-driven
/// failover and crash-restart dedup, with the real client library.
///
///   a. a 3-site fleet with per-site --dir comes up; a TardisClient that
///      knows all three endpoints writes through site 0;
///   b. a hand-built sessioned put is replayed verbatim on the same
///      daemon: the duplicate is answered from the dedup table with the
///      IDENTICAL state id, no second commit (states count unchanged,
///      dedup-hit metric increments). A corrupt `*S` token is rejected
///      with a retryable ERR HEADER — never silently stripped;
///   c. once a peer holds site 0's session writes, site 0 is SIGKILLed
///      mid-session; the client's next write fails over — its session
///      floors make a lagging target answer ERR BEHIND, which the client
///      retries internally — and a read-your-writes get returns the
///      pre-crash value;
///   d. a deliberately uncoverable floor returns ERR BEHIND, and the
///      same read with the stale-ok flag is served anyway: the bounded-
///      staleness degraded-read mode;
///   e. site 0 restarts from its --dir and the ORIGINAL sessioned line
///      still answers from dedup with the original state id — the table
///      was rebuilt from the commit log;
///   f. the fleet converges to one leaf, the session keys hold exactly
///      the acknowledged values, and no site counted a dedup duplicate.
int RunSessionRetry(const std::string& tardisd, const std::string& dir) {
  // The store only creates the last path component, so make the phase's
  // own base directory (it must not share site dirs with earlier phases).
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Die("mkdir " + dir + ": " + strerror(errno));
  }
  Fleet fleet;
  SpawnFleet(tardisd, 3, {"--dir=" + dir}, &fleet);
  g_fleet_pids = &fleet.pids;

  // a. Session writes through the library.
  tardis::client::TardisClientOptions opt;
  for (uint16_t p : fleet.client_ports) {
    opt.endpoints.push_back("127.0.0.1:" + std::to_string(p));
  }
  opt.request_deadline_ms = 20'000;
  opt.seed = 7;
  tardis::client::TardisClient cli(std::move(opt));
  std::string s1;
  if (!cli.Put("sess_a", "v1", &s1).ok() || s1.empty()) {
    Die("session put did not commit");
  }
  printf("== session: exactly-once put acknowledged at state %s\n",
         s1.c_str());

  // b. Duplicate replay and header rejection on a raw connection.
  tardis::SessionHeader h;
  h.session_id = 0xabcdef12;
  h.seq = 1;
  h.flags = tardis::kSessionFlagWrite;
  const std::string dup_line =
      tardis::FormatSessionHeader(h) + " put sess_dup A";
  const std::string r1 = StripFloor(Cmd(fleet.conns[0], dup_line));
  if (r1.rfind("OK STATE ", 0) != 0) Die("sessioned put reply: " + r1);
  const long long states_before = StatesCount(fleet.conns[0]);
  const std::string r2 = StripFloor(Cmd(fleet.conns[0], dup_line));
  if (r2 != r1) Die("duplicate not deduped: " + r2 + " vs " + r1);
  if (StatesCount(fleet.conns[0]) != states_before) {
    Die("duplicate sessioned put created a second commit");
  }
  const std::string m0 = CmdMulti(fleet.conns[0], "metrics");
  if (MetricValue(m0, "tardis_session_dedup_hits") < 1) {
    Die("dedup hit not counted:\n" + m0);
  }
  const std::string bad = Cmd(fleet.conns[0], "*Szzz put sess_bad B");
  if (bad.rfind("ERR HEADER", 0) != 0) {
    Die("corrupt session header not rejected: " + bad);
  }
  if (MetricValue(CmdMulti(fleet.conns[0], "metrics"),
                  "tardis_session_header_rejected") < 1) {
    Die("header rejection not counted");
  }
  printf("== session: duplicate answered from dedup, corrupt *S rejected\n");

  // c. SIGKILL the serving site mid-session; the client fails over. Writes
  // that never left site 0 cannot be read anywhere after the kill, so wait
  // until one survivor holds them (0:2 = sess_dup is applied only after
  // its parent 0:1 = sess_a); the other survivor may still lag.
  if (!WaitFor([&] {
        return Cmd(fleet.conns[1], "get sess_dup") == "VALUE A" ||
               Cmd(fleet.conns[2], "get sess_dup") == "VALUE A";
      })) {
    Die("site 0's session writes never reached a peer");
  }
  kill(fleet.pids[0], SIGKILL);
  waitpid(fleet.pids[0], nullptr, 0);
  fleet.pids[0] = -1;
  close(fleet.conns[0]);
  fleet.conns[0] = -1;
  std::string s2;
  if (!cli.Put("sess_b", "v2", &s2).ok()) Die("failover put failed");
  if (cli.failovers() == 0) Die("client reported no failover");
  std::string rv;
  if (!cli.Get("sess_a", &rv).ok() || rv != "v1") {
    Die("read-your-writes across failover broken: " + rv);
  }
  printf("== session: SIGKILL failover kept exactly-once + session reads\n");

  // d. Degraded reads: an uncoverable floor is refused, stale-ok serves.
  tardis::SessionHeader probe;
  probe.session_id = 0x51;
  probe.floors.emplace_back(0, 999'999);
  const std::string behind = StripFloor(
      Cmd(fleet.conns[1], tardis::FormatSessionHeader(probe) + " get sess_a"));
  if (behind.rfind("ERR BEHIND", 0) != 0) {
    Die("uncovered floor not refused: " + behind);
  }
  probe.flags = tardis::kSessionFlagStaleOk;
  const std::string stale = StripFloor(
      Cmd(fleet.conns[1], tardis::FormatSessionHeader(probe) + " get sess_a"));
  if (stale != "VALUE v1") Die("stale-ok read not served: " + stale);
  printf("== session: ERR BEHIND on floors, stale-ok degraded read ok\n");

  // e. Crash-restart: dedup must survive the crash. When the SIGKILL
  // outran the record-store flush, recovery discards the torn log suffix
  // and the site re-learns the commits from its peers — replicated
  // CommitRecords carry the session tags, so ApplyRemote refills the
  // dedup table either way. Wait for the restarted site to have
  // re-applied the session writes before replaying the duplicate.
  fleet.pids[0] = SpawnOne(tardisd, fleet, 0);
  fleet.conns[0] = ConnectTo(fleet.client_ports[0], 10'000);
  if (fleet.conns[0] < 0) Die("site 0 did not restart");
  const int fd0 = fleet.conns[0];
  if (!WaitFor([fd0] { return Cmd(fd0, "get sess_dup") == "VALUE A"; })) {
    Die("restarted site 0 did not recover the session commits");
  }
  const std::string r3 = StripFloor(Cmd(fleet.conns[0], dup_line));
  if (r3 != r1) {
    Die("dedup did not survive crash-restart: " + r3 + " vs " + r1);
  }
  printf("== session: dedup survived SIGKILL + restart\n");

  // f. Convergence, exactly-once values, no duplicate commits anywhere.
  for (size_t i = 0; i < fleet.conns.size(); i++) {
    const int fd = fleet.conns[i];
    if (!WaitFor([fd] {
          return Cmd(fd, "leaves") == "LEAVES 1" &&
                 Cmd(fd, "get sess_a") == "VALUE v1" &&
                 Cmd(fd, "get sess_b") == "VALUE v2" &&
                 Cmd(fd, "get sess_dup") == "VALUE A";
        })) {
      Die("site " + std::to_string(i) + " did not converge on session keys");
    }
    const std::string m = CmdMulti(fd, "metrics");
    if (MetricValue(m, "tardis_session_dedup_duplicates") > 0) {
      Die("site " + std::to_string(i) + " committed a session duplicate");
    }
  }
  printf("== session: fleet converged, one leaf, exactly-once values\n");

  for (int fd : fleet.conns) Cmd(fd, "shutdown");
  g_fleet_pids = nullptr;
  return 0;
}

pid_t SpawnRouter(const std::string& router_bin, uint16_t port,
                  uint16_t metrics_port, const std::string& partitions,
                  uint64_t txn_deadline_ms) {
  fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    std::vector<std::string> args;
    args.push_back("tardis-router");
    args.push_back("--port=" + std::to_string(port));
    args.push_back("--metrics-port=" + std::to_string(metrics_port));
    args.push_back("--partitions=" + partitions);
    args.push_back("--txn-deadline-ms=" + std::to_string(txn_deadline_ms));
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (!g_verbose) {
      freopen("/dev/null", "w", stdout);
    }
    execv(router_bin.c_str(), argv.data());
    fprintf(stderr, "exec %s failed: %s\n", router_bin.c_str(),
            strerror(errno));
    _exit(127);
  }
  return pid;
}

/// Send a command to the router without insisting on a reply: used to
/// launch the 2PC whose decision window the driver SIGKILLs the router
/// in — the reply may never come.
void FireAndForget(uint16_t port, const std::string& line) {
  const int fd = ConnectTo(port, 5'000);
  if (fd < 0) Die("fire-and-forget connect failed");
  const std::string out = line + "\n";
  if (write(fd, out.data(), out.size()) != static_cast<ssize_t>(out.size())) {
    Die("fire-and-forget write failed");
  }
  std::thread([fd] {
    char buf[4096];
    while (read(fd, buf, sizeof(buf)) > 0) {
    }
    close(fd);
  }).detach();
}

/// Grid phase (`--grid`): a 2-partition × 3-site cluster behind a
/// stateless tardis-router (src/cluster/, DESIGN.md §10).
///
///   1. two independent 3-site tardisd groups come up; site 0 of each
///      serves a coordination port; the router fronts both;
///   2. single-key and single-partition multi-key commands ride the fast
///      path — the router's own metrics prove no 2PC frame was sent;
///   3. a cross-partition mput commits via fork-on-conflict 2PC, the
///      writes gossip through both partition groups;
///   4. a conflicting local commit lands inside the held-open decision
///      window: the affected partition FORKS its DAG instead of
///      aborting, and a merge through the router converges it;
///   5. the router is SIGKILLed between prepare and decide: the
///      participants' cooperative termination presumes abort (nothing
///      was acknowledged), no previously acknowledged write is lost, and
///      a replacement router on the same flags commits the retry. While
///      partition 1's coordinator is SIGSTOPped, partition 0's resolver
///      queries it in vain, yet partition 0 keeps answering the router
///      within 300 ms;
///   6. the router's serving contract: a request queued behind a held
///      2PC past the 1 s deadline gets ERR DEADLINE, and SIGTERM during
///      a held 2PC drains — the client gets OK TXN, the router exits 0.
int RunGrid(const std::string& tardisd, const std::string& router_bin,
            const std::string& dir) {
  std::vector<pid_t> all_pids;
  g_fleet_pids = &all_pids;

  // 1. Each partition group is an independent 3-site replica set with
  // its own gossip mesh; site 0 of each additionally serves the
  // coordination port the router dials. --twopc-resolve-ms is the
  // cooperative-termination grace and must exceed the router's
  // --txn-deadline-ms (1500 below).
  Fleet groups[2];
  const uint16_t coord_ports[2] = {PickFreePort(), PickFreePort()};
  for (int p = 0; p < 2; p++) {
    const std::string group_dir = dir + "/p" + std::to_string(p);
    if (mkdir(group_dir.c_str(), 0755) != 0) {
      Die("mkdir " + group_dir + " failed");
    }
    groups[p].per_site_extra = {{
        "--partition=" + std::to_string(p),
        "--coord-port=" + std::to_string(coord_ports[p]),
        "--twopc-resolve-ms=3000",
    }};
    SpawnFleet(tardisd, 3, {"--dir=" + group_dir}, &groups[p]);
    for (pid_t pid : groups[p].pids) all_pids.push_back(pid);
    for (size_t i = 0; i < 3; i++) {
      if (Cmd(groups[p].conns[i], "ping") != "PONG") {
        Die("grid site did not answer ping");
      }
    }
    const int group = p;
    if (!WaitFor([&] {
          for (size_t i = 0; i < 3; i++) {
            if (Cmd(groups[group].conns[i], "peers") != "PEERS 2") return false;
          }
          return true;
        })) {
      Die("partition group mesh never connected");
    }
  }
  printf("== grid: 2 partition groups x 3 sites up, meshes connected\n");

  const uint16_t router_port = PickFreePort();
  const uint16_t router_metrics_port = PickFreePort();
  const std::string partitions_flag =
      "127.0.0.1:" + std::to_string(coord_ports[0]) + ",127.0.0.1:" +
      std::to_string(coord_ports[1]);
  pid_t router_pid = SpawnRouter(router_bin, router_port, router_metrics_port,
                                 partitions_flag, 1500);
  all_pids.push_back(router_pid);
  int router_fd = ConnectTo(router_port, 10'000);
  if (router_fd < 0) Die("router never came up");
  if (Cmd(router_fd, "ping") != "PONG") Die("router did not answer ping");
  printf("== grid: router up in front of both partitions\n");

  // Keys with a known owner, discovered through the router's own map so
  // the test cannot drift from the hash function.
  std::vector<std::string> keys[2];
  for (int i = 0; keys[0].size() < 6 || keys[1].size() < 6; i++) {
    if (i >= 512) Die("could not find keys for both partitions");
    const std::string k = "gk" + std::to_string(i);
    const std::string r = Cmd(router_fd, "partition " + k);
    if (r == "PARTITION 0") {
      keys[0].push_back(k);
    } else if (r == "PARTITION 1") {
      keys[1].push_back(k);
    } else {
      Die("unexpected partition reply: " + r);
    }
  }

  // 2. Fast path: single-key commands and a single-partition multi-key
  // write each reach exactly one partition as an ordinary local
  // transaction. The router's metrics must show zero 2PC traffic.
  if (Cmd(router_fd, "put " + keys[0][0] + " a0") != "OK" ||
      Cmd(router_fd, "put " + keys[1][0] + " b0") != "OK") {
    Die("fast-path put through the router failed");
  }
  if (Cmd(router_fd, "get " + keys[0][0]) != "VALUE a0" ||
      Cmd(router_fd, "get " + keys[1][0]) != "VALUE b0") {
    Die("fast-path get through the router failed");
  }
  const std::string sp =
      Cmd(router_fd, "mput " + keys[0][1] + " a1 " + keys[0][2] + " a2");
  if (sp != "OK") Die("single-partition mput not on the fast path: " + sp);
  if (!WaitFor([&] {
        return Cmd(groups[0].conns[1], "get " + keys[0][1]) == "VALUE a1";
      })) {
    Die("fast-path write did not gossip through partition group 0");
  }
  std::string rm = CmdMulti(router_fd, "metrics");
  if (MetricSeries(rm, "tardis_2pc_prepares{role=\"router\"}") > 0 ||
      MetricSeries(rm, "tardis_router_requests{path=\"2pc\"}") > 0) {
    Die("fast-path traffic produced 2PC frames:\n" + rm);
  }
  if (MetricSeries(rm, "tardis_router_requests{path=\"fast\"}") < 5) {
    Die("router did not count fast-path requests:\n" + rm);
  }
  const std::string rhttp = HttpGetMetrics(router_metrics_port);
  if (MetricSeries(rhttp, "tardis_router_requests{path=\"fast\"}") < 5) {
    Die("router HTTP metrics endpoint missing request counter:\n" + rhttp);
  }
  printf("== grid: fast path served with zero 2PC frames "
         "(router metrics, line protocol + HTTP)\n");

  // 3. Cross-partition 2PC commit; both fragments land and gossip
  // through their groups.
  const std::string xr = Cmd(
      router_fd, "mput " + keys[0][3] + " x0 " + keys[1][1] + " x1");
  if (xr.rfind("OK TXN ", 0) != 0) Die("cross-partition mput failed: " + xr);
  if (Cmd(router_fd, "get " + keys[0][3]) != "VALUE x0" ||
      Cmd(router_fd, "get " + keys[1][1]) != "VALUE x1") {
    Die("cross-partition writes not readable through the router");
  }
  if (!WaitFor([&] {
        return Cmd(groups[0].conns[2], "get " + keys[0][3]) == "VALUE x0" &&
               Cmd(groups[1].conns[2], "get " + keys[1][1]) == "VALUE x1";
      })) {
    Die("2PC writes did not gossip through the partition groups");
  }
  rm = CmdMulti(router_fd, "metrics");
  if (MetricSeries(rm, "tardis_2pc_prepares{role=\"router\"}") != 2 ||
      MetricSeries(rm, "tardis_router_requests{path=\"2pc\"}") != 1) {
    Die("router 2PC metrics wrong after cross-partition commit:\n" + rm);
  }
  const std::string gh = CmdMulti(router_fd, "health");
  if (gh.find("ROUTER partitions=2") == std::string::npos ||
      gh.find("P0 SITE 0") == std::string::npos ||
      gh.find("P1 SITE 0") == std::string::npos ||
      gh.find("metrics_port=") == std::string::npos ||
      gh.find("queue_bound=") == std::string::npos ||
      gh.find("coord_port=") == std::string::npos) {
    Die("aggregated health missing per-partition blocks or fields:\n" + gh);
  }
  printf("== grid: cross-partition transaction committed via 2PC\n");

  // 4. Conflict inside the decision window: hold the window open via the
  // router's 2pc_delay test hook, land a conflicting local commit at
  // partition 0's coordinating site. The staged 2PC transaction then
  // decide-commits against a moved branch head — TARDiS forks the DAG
  // instead of aborting, and the router reports FORKED.
  if (Cmd(router_fd, "2pc_delay 1200") != "OK") Die("2pc_delay failed");
  const std::string conflict_key = keys[0][0];
  std::string forked_reply;
  const int router_fd2 = ConnectTo(router_port, 5'000);
  if (router_fd2 < 0) Die("second router connection failed");
  std::thread forker([&] {
    forked_reply = Cmd(router_fd2, "mput " + conflict_key + " f0 " +
                                       keys[1][2] + " f1");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  if (Cmd(groups[0].conns[0], "put " + conflict_key + " rogue") != "OK") {
    Die("conflicting local put failed");
  }
  forker.join();
  close(router_fd2);
  if (forked_reply.rfind("OK TXN ", 0) != 0 ||
      forked_reply.find(" FORKED") == std::string::npos) {
    Die("conflicting 2PC did not fork: " + forked_reply);
  }
  if (Cmd(router_fd, "2pc_delay 0") != "OK") Die("2pc_delay reset failed");
  if (!WaitFor([&] {
        return Cmd(groups[0].conns[0], "leaves") == "LEAVES 2";
      })) {
    Die("conflict did not fork partition 0's DAG");
  }
  rm = CmdMulti(router_fd, "metrics");
  if (MetricSeries(rm, "tardis_2pc_forked_commits{role=\"router\"}") < 1) {
    Die("router did not count the forked 2PC commit:\n" + rm);
  }
  const std::string mm = CmdMulti(router_fd, "merge lww");
  if (mm.find("P0 MERGED") == std::string::npos) {
    Die("merge through the router did not merge partition 0:\n" + mm);
  }
  if (!WaitFor([&] {
        for (size_t i = 0; i < 3; i++) {
          if (Cmd(groups[0].conns[i], "leaves") != "LEAVES 1") return false;
        }
        return true;
      })) {
    Die("partition 0 did not converge to one leaf after merge");
  }
  const std::string cv = Cmd(router_fd, "get " + conflict_key);
  if (cv.rfind("VALUE ", 0) != 0) {
    Die("conflict key unreadable after merge: " + cv);
  }
  printf("== grid: conflicting 2PC forked partition 0's DAG, "
         "merge converged it\n");

  // 5. Kill the router between prepare and decide. Both participants
  // hold a prepared-but-undecided transaction; no decide was ever sent,
  // so cooperative termination (peer query after --twopc-resolve-ms)
  // must presume abort — the client never got an OK, so nothing is lost.
  if (Cmd(router_fd, "2pc_delay 30000") != "OK") Die("2pc_delay failed");
  const std::string doomed =
      "mput " + keys[0][4] + " lost0 " + keys[1][3] + " lost1";
  FireAndForget(router_port, doomed);
  auto in_doubt_at = [&](int p) {
    return HealthField(CmdMulti(groups[p].conns[0], "health"),
                       "twopc_in_doubt");
  };
  if (!WaitFor([&] { return in_doubt_at(0) >= 1 && in_doubt_at(1) >= 1; })) {
    Die("participants never reported the prepared transaction in doubt");
  }
  kill(router_pid, SIGKILL);
  waitpid(router_pid, nullptr, 0);
  close(router_fd);
  printf("== grid: router SIGKILLed between prepare and decide\n");

  // The resolver never blocks serving: stop partition 1's coordinator, so
  // partition 0's resolver, past --twopc-resolve-ms, queries a peer that
  // accepts but never answers. A replacement router's reads of
  // partition 0 through its coordination port must still be prompt.
  const pid_t coord1 = groups[1].pids[0];
  kill(coord1, SIGSTOP);
  router_pid = SpawnRouter(router_bin, router_port, router_metrics_port,
                           partitions_flag, 1500);
  all_pids.push_back(router_pid);
  router_fd = ConnectTo(router_port, 10'000);
  if (router_fd < 0) Die("replacement router never came up");
  std::this_thread::sleep_for(std::chrono::milliseconds(3'500));
  if (in_doubt_at(0) < 1) {
    Die("partition 0 resolved its in-doubt txn with its peer stopped");
  }
  for (int i = 0; i < 10; i++) {
    const auto start = std::chrono::steady_clock::now();
    const std::string r = Cmd(router_fd, "get " + keys[0][3]);
    const long long took =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (r != "VALUE x0" || took >= 300) {
      kill(coord1, SIGCONT);
      Die("read of partition 0 during peer queries took " +
          std::to_string(took) + " ms: " + r);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  kill(coord1, SIGCONT);
  printf("== grid: 10 reads of partition 0 answered within 300 ms while "
         "its resolver queried a stopped peer\n");

  if (!WaitFor([&] { return in_doubt_at(0) == 0 && in_doubt_at(1) == 0; },
               20'000)) {
    Die("in-doubt transactions did not resolve after the router died");
  }
  // Atomicity: the unacknowledged write set landed in NEITHER partition.
  if (Cmd(groups[0].conns[0], "get " + keys[0][4]) != "NOTFOUND" ||
      Cmd(groups[1].conns[0], "get " + keys[1][3]) != "NOTFOUND") {
    Die("aborted cross-partition transaction leaked a write");
  }
  // ...and every write the dead router DID acknowledge is still there.
  if (Cmd(groups[0].conns[0], "get " + keys[0][3]) != "VALUE x0" ||
      Cmd(groups[1].conns[0], "get " + keys[1][1]) != "VALUE x1") {
    Die("committed write lost across the router crash");
  }
  printf("== grid: cooperative termination aborted the in-doubt txn, "
         "no acknowledged write lost\n");

  // The replacement router, on the same flags, took over at once —
  // there is no durable router state to recover.
  const std::string retry = Cmd(router_fd, doomed);
  if (retry.rfind("OK TXN ", 0) != 0) {
    Die("retried mput after router restart failed: " + retry);
  }
  if (Cmd(router_fd, "get " + keys[0][4]) != "VALUE lost0" ||
      Cmd(router_fd, "get " + keys[1][3]) != "VALUE lost1") {
    Die("retried transaction not readable after router restart");
  }
  printf("== grid: replacement router committed the retried transaction\n");

  // 6. The router serves clients with tardisd's overload and drain
  // contract, on one worker. A held 2PC occupies that worker; a ping
  // queued behind it waits past the 1 s request deadline and is refused
  // ERR DEADLINE (retryable) instead of running late.
  if (Cmd(router_fd, "2pc_delay 1500") != "OK") Die("2pc_delay failed");
  auto held_mput = [&](const std::string& line, std::string* reply) {
    return std::thread([&, line, reply] {
      const int fd = ConnectTo(router_port, 5'000);
      if (fd < 0) Die("router connection for a held mput failed");
      *reply = Cmd(fd, line);
      close(fd);
    });
  };
  std::string held_reply;
  std::thread held = held_mput(
      "mput " + keys[0][5] + " d0 " + keys[1][4] + " d1", &held_reply);
  if (!WaitFor([&] { return in_doubt_at(0) >= 1 && in_doubt_at(1) >= 1; })) {
    Die("held mput never reached prepare");
  }
  const std::string late_ping = Cmd(router_fd, "ping");
  held.join();
  if (late_ping.rfind("ERR DEADLINE", 0) != 0) {
    Die("ping queued behind a held 2PC was not refused ERR DEADLINE: " +
        late_ping);
  }
  if (held_reply.rfind("OK TXN ", 0) != 0) {
    Die("held mput failed: " + held_reply);
  }
  printf("== grid: router refused a request queued past its deadline\n");

  // SIGTERM while a held 2PC is in flight: the router drains — the
  // client gets its OK TXN — and exits 0.
  if (!WaitFor([&] { return in_doubt_at(0) == 0 && in_doubt_at(1) == 0; })) {
    Die("held mput left a transaction in doubt");
  }
  std::string drained_reply;
  std::thread drained = held_mput(
      "mput " + keys[0][5] + " t0 " + keys[1][5] + " t1", &drained_reply);
  if (!WaitFor([&] { return in_doubt_at(0) >= 1 && in_doubt_at(1) >= 1; })) {
    Die("drained mput never reached prepare");
  }
  kill(router_pid, SIGTERM);
  drained.join();
  if (drained_reply.rfind("OK TXN ", 0) != 0) {
    Die("in-flight mput not answered across the router's drain: " +
        drained_reply);
  }
  int router_status = 0;
  waitpid(router_pid, &router_status, 0);
  if (!WIFEXITED(router_status) || WEXITSTATUS(router_status) != 0) {
    Die("router did not drain and exit 0 on SIGTERM (status=" +
        std::to_string(router_status) + ")");
  }
  close(router_fd);
  if (Cmd(groups[0].conns[0], "get " + keys[0][5]) != "VALUE t0" ||
      Cmd(groups[1].conns[0], "get " + keys[1][5]) != "VALUE t1") {
    Die("write acknowledged during the router's drain is missing");
  }
  printf("== grid: SIGTERM drained the router mid-2PC, exit 0\n");

  for (int p = 0; p < 2; p++) {
    for (size_t i = 0; i < 3; i++) Cmd(groups[p].conns[i], "shutdown");
  }
  g_fleet_pids = nullptr;
  return 0;
}

/// Trace phase (`--trace`): distributed tracing across the grid
/// (DESIGN.md §7). A 2-partition × 2-site cluster behind the router:
///
///   1. `trace start` through the router enables the tracer on every
///      process; `trace sample 1` turns on head sampling for requests
///      without their own header;
///   2. a cross-partition mput carries a driver-chosen trace header; the
///      router and both participants log their spans under that id;
///   3. `trace collect` (router-side stitch) and tardis-tracectl
///      (client-side collect + validate) both produce one well-formed
///      Chrome trace in which the chosen trace id spans >= 3 processes;
///   4. `metrics cluster` returns the merged exposition: summed
///      counters and the tardis_stage_micros bucket series from every
///      partition plus the router's own prepare_rtt stage.
int RunTraceGrid(const std::string& tardisd, const std::string& router_bin,
                 const std::string& tracectl, const std::string& dir) {
  std::vector<pid_t> all_pids;
  g_fleet_pids = &all_pids;

  Fleet groups[2];
  const uint16_t coord_ports[2] = {PickFreePort(), PickFreePort()};
  for (int p = 0; p < 2; p++) {
    const std::string group_dir = dir + "/tp" + std::to_string(p);
    if (mkdir(group_dir.c_str(), 0755) != 0) {
      Die("mkdir " + group_dir + " failed");
    }
    groups[p].per_site_extra = {{
        "--partition=" + std::to_string(p),
        "--coord-port=" + std::to_string(coord_ports[p]),
        "--twopc-resolve-ms=3000",
        "--slow-ms=1",  // every traced request also exercises the slow log
    }};
    SpawnFleet(tardisd, 2, {"--dir=" + group_dir}, &groups[p]);
    for (pid_t pid : groups[p].pids) all_pids.push_back(pid);
  }
  const uint16_t router_port = PickFreePort();
  const uint16_t router_metrics_port = PickFreePort();
  const std::string partitions_flag =
      "127.0.0.1:" + std::to_string(coord_ports[0]) + ",127.0.0.1:" +
      std::to_string(coord_ports[1]);
  pid_t router_pid = SpawnRouter(router_bin, router_port, router_metrics_port,
                                 partitions_flag, 1500);
  all_pids.push_back(router_pid);
  int router_fd = ConnectTo(router_port, 10'000);
  if (router_fd < 0) Die("router never came up");
  if (Cmd(router_fd, "ping") != "PONG") Die("router did not answer ping");
  printf("== trace: 2 partitions x 2 sites + router up\n");

  // 1. One command arms the tracer cluster-wide.
  const std::string ts = CmdMulti(router_fd, "trace start");
  if (ts.find("ROUTER OK") == std::string::npos ||
      ts.find("P0 OK") == std::string::npos ||
      ts.find("P1 OK") == std::string::npos) {
    Die("trace start did not reach every process:\n" + ts);
  }
  if (Cmd(router_fd, "trace sample 1") != "OK") Die("trace sample failed");

  std::string key0, key1;
  for (int i = 0; key0.empty() || key1.empty(); i++) {
    if (i >= 512) Die("could not find keys for both partitions");
    const std::string k = "tk" + std::to_string(i);
    const std::string r = Cmd(router_fd, "partition " + k);
    if (r == "PARTITION 0" && key0.empty()) key0 = k;
    if (r == "PARTITION 1" && key1.empty()) key1 = k;
  }

  // 2. The traced request: a cross-partition 2PC mput under a trace id
  // the driver chose, plus a self-sampled fast-path pair.
  const uint64_t trace_id = 0x7a9d15000000c0deULL;  // "tardis...code"
  char hdr[40];
  snprintf(hdr, sizeof(hdr), "*T%016llx/0/1",
           static_cast<unsigned long long>(trace_id));
  const std::string xr = Cmd(
      router_fd, std::string(hdr) + " mput " + key0 + " t0 " + key1 + " t1");
  if (xr.rfind("OK TXN ", 0) != 0) {
    Die("traced cross-partition mput failed: " + xr);
  }
  if (Cmd(router_fd, "put " + key0 + " t2") != "OK" ||
      Cmd(router_fd, "get " + key1) != "VALUE t1") {
    Die("fast-path requests through the router failed");
  }

  char expect[24];
  snprintf(expect, sizeof(expect), "%016llx",
           static_cast<unsigned long long>(trace_id));

  // 3a. Router-side stitch: `trace collect` fans out `trace json` to
  // every partition and merges the rings with its own.
  const std::string collected = CmdMulti(router_fd, "trace collect");
  if (collected.find("traceEvents") == std::string::npos ||
      collected.find(expect) == std::string::npos) {
    Die("trace collect did not return a stitched trace containing " +
        std::string(expect));
  }
  printf("== trace: router-side `trace collect` stitched the rings\n");

  // 3b. Client-side: tardis-tracectl collects from the router and both
  // coordinating sites, then validates the merged document.
  auto run_tracectl = [&](std::vector<std::string> args) {
    fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) Die("fork failed");
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(tracectl.c_str(), argv.data());
      fprintf(stderr, "exec %s failed: %s\n", tracectl.c_str(),
              strerror(errno));
      _exit(127);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  const std::string trace_path = dir + "/cluster_trace.json";
  const std::string sites_flag =
      "127.0.0.1:" + std::to_string(router_port) + ",127.0.0.1:" +
      std::to_string(groups[0].client_ports[0]) + ",127.0.0.1:" +
      std::to_string(groups[1].client_ports[0]);
  if (run_tracectl({"tardis-tracectl", "collect", "--sites=" + sites_flag,
                    "--out=" + trace_path}) != 0) {
    Die("tardis-tracectl collect failed");
  }
  if (run_tracectl({"tardis-tracectl", "validate", "--in=" + trace_path,
                    "--expect-trace=" + std::string(expect),
                    "--min-processes=3"}) != 0) {
    Die("tardis-tracectl validate failed: trace " + std::string(expect) +
        " should span router + both participants");
  }
  printf("== trace: one trace id spans >= 3 processes in the stitched "
         "Chrome trace\n");

  // 4. Cluster-wide telemetry: the merged exposition carries both the
  // participants' stage histograms (wal_fsync, decide_apply, ...) and
  // the router's own (prepare_rtt), as native _bucket series.
  const std::string cm = CmdMulti(router_fd, "metrics cluster");
  if (cm.find("tardis_stage_micros_bucket") == std::string::npos) {
    Die("metrics cluster missing stage histogram buckets:\n" + cm);
  }
  if (cm.find("stage=\"prepare_rtt\"") == std::string::npos ||
      cm.find("stage=\"wal_fsync\"") == std::string::npos) {
    Die("metrics cluster missing router/participant stages:\n" + cm);
  }
  if (MetricValue(cm, "tardis_txn_commits_total") < 1) {
    Die("metrics cluster lost the partitions' commit counters:\n" + cm);
  }
  if (MetricSeries(cm, "tardis_router_requests{path=\"2pc\"}") < 1) {
    Die("metrics cluster lost the router's own series:\n" + cm);
  }
  printf("== trace: metrics cluster merged router + partition "
         "expositions\n");

  kill(router_pid, SIGKILL);
  waitpid(router_pid, nullptr, 0);
  close(router_fd);
  for (int p = 0; p < 2; p++) {
    for (size_t i = 0; i < 2; i++) Cmd(groups[p].conns[i], "shutdown");
  }
  g_fleet_pids = nullptr;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tardisd;
  std::string router;
  std::string tracectl;
  bool grid = false;
  bool trace = false;
  const char usage[] =
      "usage: tardisd_driver --tardisd=PATH [--router=PATH --grid] "
      "[--router=PATH --tracectl=PATH --trace] [--verbose]\n";
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--tardisd=", 0) == 0) {
      tardisd = arg.substr(strlen("--tardisd="));
    } else if (arg.rfind("--router=", 0) == 0) {
      router = arg.substr(strlen("--router="));
    } else if (arg.rfind("--tracectl=", 0) == 0) {
      tracectl = arg.substr(strlen("--tracectl="));
    } else if (arg == "--grid") {
      grid = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--verbose") {
      g_verbose = true;
    } else {
      fprintf(stderr, usage);
      return 2;
    }
  }
  if (tardisd.empty() || (grid && router.empty()) ||
      (trace && (router.empty() || tracectl.empty()))) {
    fprintf(stderr, usage);
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  char dir_template[] = "/tmp/tardisd_driver_XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    fprintf(stderr, "tardisd_driver: mkdtemp failed\n");
    return 1;
  }
  if (trace) {
    // Distributed-tracing acceptance: one trace id across the whole
    // grid, stitched and validated end to end.
    if (RunTraceGrid(tardisd, router, tracectl, dir) != 0) return 1;
    printf("PASS: distributed tracing — wire-propagated context, stitched "
           "cluster trace, merged cluster metrics\n");
    return 0;
  }
  if (grid) {
    // Partitioned-cluster acceptance: 2 partition groups x 3 sites
    // behind a stateless tardis-router.
    if (RunGrid(tardisd, router, dir) != 0) return 1;
    printf("PASS: partitioned cluster — fast path, cross-partition 2PC, "
           "fork-on-conflict, router crash recovery, router deadline and "
           "drain\n");
    return 0;
  }
  if (RunConvergence(tardisd) != 0) return 1;
  if (RunOverloadAndDrain(tardisd, dir) != 0) return 1;
  if (RunSessionRetry(tardisd, std::string(dir) + "/session") != 0) return 1;
  printf("PASS: cross-process branch-and-merge + resilience over TCP\n");
  return 0;
}
