// The `grid` workload: 2 partitions × 2 replica tardisd sites behind one
// tardis_router, driven through TardisClient exactly as shipped. An open
// loop offers a fixed request rate over four users; each request's
// latency runs from the moment it was due. Each user holds one sessioned
// TardisClient per partition, all through the router (see NOTES.md,
// "known defect"), and a deadline long enough that no request fails on a
// slow host. Layer numbers come from the router's `metrics cluster` and
// the replicas' own `metrics prom`, read before and after the window. The
// sites run --backend=trie, so the storage/cowtrie layer is measured;
// every other flag is tardisd's default.

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client/tardis_client.h"
#include "cluster/partition_map.h"
#include "spans.h"
#include "stats.h"
#include "util/random.h"
#include "values.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tardis::Status;
using tardis::client::TardisClient;
using tardis::client::TardisClientOptions;

constexpr const char* kBackend = "trie";
constexpr uint32_t kPartitions = 2;
constexpr uint32_t kReplicas = 2;
constexpr uint32_t kConnections = 4;
constexpr uint64_t kKeys = 20'000;
constexpr double kRatePerS = 3000;
constexpr uint64_t kLimitMs = 50;  // p99 latency limit
// Client request deadline. Far above the limit and the router's 4 s 2PC
// deadline, so a host stall makes requests late, never failed.
constexpr uint64_t kDeadlineMs = 10'000;
// The known-defect repro: sessioned puts to a partition-1 key, then a
// get of a partition-0 key under a short deadline.
constexpr int kReproPuts = 5;
constexpr uint64_t kReproDeadlineMs = 200;
constexpr double kGetFrac = 0.70, kPutFrac = 0.25;  // rest: 2-key mput
// Keys per preload mput. Fewer, larger round trips make set-up time
// depend less on how fast the host wakes the five processes. On a 4-core
// VM, against batches of 100, set-up took 0.24 s instead of 0.29 s and
// its quartile spread halved (0.07 vs 0.14 over 20 interleaved set-ups).
constexpr size_t kPreloadBatch = 1000;
constexpr uint64_t kUntouchedSample = 500;
constexpr int64_t kQuiesceTimeoutNs = 15'000'000'000;
// Set-ups per trial; setup_s is the mean over all set-ups of a run.
constexpr int kSetups = 3;

// ---- processes --------------------------------------------------------------

/// `n` distinct free loopback ports below the kernel's ephemeral range
/// (which starts at 32768 by default), so no outgoing connection of the
/// grid or the clients can take one between this probe and the daemon's
/// bind. Each probe socket stays open until all are picked.
std::vector<uint16_t> PickPorts(size_t n) {
  constexpr uint16_t kLow = 20000, kHigh = 32000;
  std::vector<int> held;
  std::vector<uint16_t> ports;
  uint16_t port = static_cast<uint16_t>(
      kLow + (static_cast<uint64_t>(NowNs()) ^ static_cast<uint64_t>(getpid())) %
                 (kHigh - kLow));
  for (int tries = 0; ports.size() < n && tries < kHigh - kLow; tries++) {
    port = port + 1 >= kHigh ? kLow : port + 1;
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      held.push_back(fd);
      ports.push_back(port);
    } else {
      close(fd);
    }
  }
  for (int fd : held) close(fd);
  if (ports.size() < n) throw std::runtime_error("no free loopback ports");
  return ports;
}

pid_t Spawn(const std::string& bin, const std::vector<std::string>& args) {
  fflush(stdout);
  fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    std::vector<std::string> all = {bin};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : all) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (!freopen("/dev/null", "w", stdout) ||
        !freopen("/dev/null", "w", stderr)) {
      _exit(126);
    }
    execv(bin.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

std::string Endpoint(uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

std::unique_ptr<TardisClient> MakeClient(const std::string& endpoint,
                                         uint64_t deadline_ms, uint64_t seed) {
  TardisClientOptions o;
  o.endpoints = {endpoint};
  o.request_deadline_ms = deadline_ms;
  o.seed = seed;
  return std::make_unique<TardisClient>(o);
}

/// The five serving processes. The destructor kills and reaps all of
/// them, so every exit path leaves no process behind.
class Grid {
 public:
  Grid(const std::string& tardisd_bin, const std::string& router_bin) {
    try {
      Start(tardisd_bin, router_bin);
    } catch (...) {
      Stop();
      throw;
    }
  }
  ~Grid() { Stop(); }
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  std::string router() const { return Endpoint(router_port_); }
  std::string site(uint32_t p, uint32_t r) const {
    return Endpoint(client_ports_[p][r]);
  }
  /// Summed VmHWM of every daemon, MiB.
  double PeakRssMb() const {
    double sum = 0;
    for (pid_t pid : pids_) sum += perfbench::PeakRssMb(pid);
    return sum;
  }

 private:
  void Start(const std::string& tardisd_bin, const std::string& router_bin) {
    const std::vector<uint16_t> ports =
        PickPorts(kPartitions * (2 * kReplicas + 1) + 1);
    size_t next_port = 0;
    std::string partitions_flag;
    for (uint32_t p = 0; p < kPartitions; p++) {
      std::string peers;
      std::array<uint16_t, kReplicas> repl{};
      for (uint32_t r = 0; r < kReplicas; r++) {
        repl[r] = ports[next_port++];
        client_ports_[p][r] = ports[next_port++];
        peers += (r ? "," : "") + Endpoint(repl[r]);
      }
      const uint16_t coord = ports[next_port++];
      partitions_flag += (p ? "," : "") + Endpoint(coord);
      for (uint32_t r = 0; r < kReplicas; r++) {
        std::vector<std::string> args = {
            "--site=" + std::to_string(r), "--peers=" + peers,
            "--client-port=" + std::to_string(client_ports_[p][r]),
            std::string("--backend=") + kBackend};
        // Site 0 of each replica set serves the coordination port the
        // router dials; site 1 is its gossip replica.
        if (r == 0) {
          args.push_back("--partition=" + std::to_string(p));
          args.push_back("--coord-port=" + std::to_string(coord));
        }
        pids_.push_back(Spawn(tardisd_bin, args));
      }
    }
    router_port_ = ports[next_port++];
    pids_.push_back(Spawn(router_bin, {"--port=" + std::to_string(router_port_),
                                   "--partitions=" + partitions_flag}));
    const int64_t deadline = NowNs() + 20'000'000'000;
    for (uint32_t p = 0; p < kPartitions; p++) {
      for (uint32_t r = 0; r < kReplicas; r++) {
        WaitReply(site(p, r), "peers", "PEERS 1", deadline);
      }
    }
    WaitReply(router(), "ping", "PONG", deadline);
  }

  void WaitReply(const std::string& endpoint, const std::string& cmd,
                 const std::string& want, int64_t deadline) {
    auto c = MakeClient(endpoint, 1000, 1);
    std::string reply;
    while (NowNs() < deadline) {
      if (c->Call(cmd, &reply).ok() && reply == want) return;
      CheckAlive();
      usleep(2'000);
    }
    throw std::runtime_error(endpoint + " never answered '" + cmd + "' with '" +
                             want + "' (last: '" + reply + "')");
  }

  void CheckAlive() {
    for (pid_t& pid : pids_) {
      int status = 0;
      if (pid > 0 && waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        throw std::runtime_error("a grid process exited during start-up");
      }
    }
  }

  void Stop() {
    for (pid_t pid : pids_) {
      if (pid > 0) kill(pid, SIGKILL);
    }
    for (pid_t pid : pids_) {
      if (pid > 0) waitpid(pid, nullptr, 0);
    }
    pids_.clear();
  }

  std::vector<pid_t> pids_;
  uint16_t client_ports_[kPartitions][kReplicas] = {};
  uint16_t router_port_ = 0;
};

// ---- Prometheus text --------------------------------------------------------

using Prom = std::map<std::string, double>;  // "name{labels}" -> value

Prom ParseProm(const std::string& body) {
  Prom out;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] += strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

/// Sum of every series named `name` whose labels contain `label` (may be
/// empty), e.g. Sum(p, "tardis_stage_micros_sum", "stage=\"queue_wait\"").
double Sum(const Prom& p, const std::string& name, const std::string& label) {
  double s = 0;
  for (const auto& [series, v] : p) {
    const size_t brace = series.find('{');
    const std::string n = series.substr(0, brace);
    if (n != name) continue;
    if (!label.empty() &&
        (brace == std::string::npos || series.find(label) == std::string::npos)) {
      continue;
    }
    s += v;
  }
  return s;
}

Prom FetchProm(const std::string& endpoint, const std::string& cmd) {
  auto c = MakeClient(endpoint, 5000, 7);
  std::string body;
  const Status s = c->CallMulti(cmd, &body);
  if (!s.ok()) throw std::runtime_error(cmd + " at " + endpoint + ": " + s.ToString());
  return ParseProm(body);
}

/// Router-side cluster metrics plus each replica's own exposition.
struct GridMetrics {
  Prom cluster;
  Prom replicas;
};

GridMetrics FetchAll(const Grid& g) {
  GridMetrics m;
  m.cluster = FetchProm(g.router(), "metrics cluster");
  for (uint32_t p = 0; p < kPartitions; p++) {
    for (const auto& [k, v] : FetchProm(g.site(p, 1), "metrics prom")) {
      m.replicas[k] += v;
    }
  }
  return m;
}

double StageMean(const GridMetrics& a, const GridMetrics& b,
                 const std::string& stage, bool replicas, uint64_t* count) {
  const std::string label = "stage=\"" + stage + "\"";
  const Prom& pa = replicas ? a.replicas : a.cluster;
  const Prom& pb = replicas ? b.replicas : b.cluster;
  const double c = Sum(pb, "tardis_stage_micros_count", label) -
                   Sum(pa, "tardis_stage_micros_count", label);
  const double s = Sum(pb, "tardis_stage_micros_sum", label) -
                   Sum(pa, "tardis_stage_micros_sum", label);
  *count = c > 0 ? static_cast<uint64_t>(c) : 0;
  return c > 0 ? s / c : 0;
}

// ---- set-up -----------------------------------------------------------------

struct Keyspace {
  std::vector<uint32_t> partition;            // by key index
  std::vector<std::vector<uint64_t>> by_part;  // key indexes per partition
};

Keyspace BuildKeyspace() {
  const tardis::cluster::PartitionMap map =
      tardis::cluster::PartitionMap::Uniform(kPartitions);
  Keyspace ks;
  ks.by_part.resize(kPartitions);
  for (uint64_t k = 0; k < kKeys; k++) {
    const uint32_t p = map.PartitionForKey(KeyName(k));
    ks.partition.push_back(p);
    ks.by_part[p].push_back(k);
  }
  return ks;
}

/// Spawns a grid and preloads every key. The preload uses one client per
/// partition so no session spans two partitions (see NOTES.md, "known
/// defect"); batches of one partition's keys take the router's fast path.
std::unique_ptr<Grid> SetupOnce(const RunOptions& opts, const Keyspace& ks,
                                const Provenance& prov, double* secs) {
  const int64_t t0 = NowNs();
  auto grid = std::make_unique<Grid>(opts.tardisd_bin, opts.router_bin);
  for (uint32_t p = 0; p < kPartitions; p++) {
    auto c = MakeClient(grid->router(), 10'000, opts.seed + p);
    const std::vector<uint64_t>& keys = ks.by_part[p];
    for (size_t i = 0; i < keys.size(); i += kPreloadBatch) {
      std::vector<std::pair<std::string, std::string>> batch;
      for (size_t j = i; j < std::min(keys.size(), i + kPreloadBatch); j++) {
        batch.emplace_back(KeyName(keys[j]), prov.PreloadValue(keys[j]));
      }
      const Status s = c->MultiPut(batch);
      if (!s.ok()) throw std::runtime_error("preload mput: " + s.ToString());
    }
  }
  *secs = static_cast<double>(NowNs() - t0) / 1e9;
  return grid;
}

/// The known defect (NOTES.md), reproduced outside the measured window on
/// a fresh session through the router: kReproPuts puts to a partition-1
/// key, each rewriting its preload value so the run's checks see no new
/// write, then a get of a partition-0 key. Partition 1's site 0 is then
/// ahead of partition 0's, and the session carries its floor as site 0's.
/// Returns 1 when the get is refused with ERR BEHIND until its deadline,
/// else 0; *outcome says what the get returned.
int ReproBehind(const Grid& g, const Keyspace& ks, const Provenance& prov,
                uint64_t seed, std::string* outcome) {
  auto c = MakeClient(g.router(), kReproDeadlineMs, seed);
  const uint64_t k1 = ks.by_part[1][0];
  for (int i = 0; i < kReproPuts; i++) {
    const Status s = c->Put(KeyName(k1), prov.PreloadValue(k1));
    if (!s.ok()) {
      *outcome = "put failed: " + s.ToString();
      return 0;
    }
  }
  std::string v;
  const Status s = c->Get(KeyName(ks.by_part[0][0]), &v);
  *outcome = s.ok() ? "served" : s.ToString();
  return !s.ok() && s.ToString().find("BEHIND") != std::string::npos ? 1 : 0;
}

// ---- the open loop ----------------------------------------------------------

enum class Op { kGet, kPut, kMput };

struct Outcome {
  std::vector<double> all_us, get_us, put_us, mput_us;
  std::vector<double> late_us;
  uint64_t attempted = 0, failed = 0, behind = 0;
  uint64_t within_limit = 0;
  /// Per slice of the window (by due time): requests acknowledged within
  /// the limit, and the latest reply among them.
  std::vector<uint64_t> slice_ok;
  std::vector<int64_t> slice_last_ns;
  uint64_t sent = 0;
  double sent_us_sum = 0;  // latency of every request that was sent
  uint64_t retries = 0, failovers = 0, requests = 0;
  std::vector<std::string> errors;
  std::string first_failure;
  /// Acknowledged mputs: (writer, idx) of both writes.
  std::vector<std::array<uint64_t, 3>> mputs;  // writer, idx0, idx1

  void Wrong(const std::string& e) {
    if (errors.size() < 20) errors.push_back(e);
  }
};

struct LoopShared {
  const Keyspace* ks;
  Provenance* prov;
  std::string router;
  uint64_t seed;
  int64_t start_ns, end_ns;
  int64_t slice_ns;
  size_t slices;
};

/// One user of the open loop. User c owns requests c, c+4, c+8, ... of
/// one fixed-rate schedule, so each sends at a quarter of the rate. A
/// request the user could not send on time (it was still waiting for an
/// earlier one) is sent late; its latency still runs from its due time.
/// The user sends each get and put through its session for the key's
/// partition and each cross-partition mput through partition 0's.
void Worker(LoopShared* sh, uint32_t writer, SpanBuffer* sb, Outcome* out) {
  std::array<std::unique_ptr<TardisClient>, kPartitions> clients;
  for (uint32_t p = 0; p < kPartitions; p++) {
    clients[p] = MakeClient(sh->router, kDeadlineMs,
                            (sh->seed * 31 + writer) * kPartitions + p);
  }
  const int64_t limit_ns = static_cast<int64_t>(kLimitMs) * 1'000'000;
  const uint64_t keys_p0 = sh->ks->by_part[0].size();
  const uint64_t keys_p1 = sh->ks->by_part[1].size();
  std::string value;
  Outcome& o = *out;
  for (uint64_t i = writer - 1;; i += kConnections) {
    const int64_t due = DueTimeNs(sh->start_ns, i, kRatePerS);
    if (due >= sh->end_ns) break;
    int64_t now = NowNs();
    if (now < due) {
      usleep(static_cast<useconds_t>((due - now) / 1000));
      while ((now = NowNs()) < due) {
      }
    }
    // The request stream depends on the seed and the request index only.
    tardis::Random rng(sh->seed * 0x9E3779B97F4A7C15ull + i);
    const double pick = rng.NextDouble();
    const Op op = pick < kGetFrac ? Op::kGet
                  : pick < kGetFrac + kPutFrac ? Op::kPut
                                               : Op::kMput;
    const uint64_t k0 = op == Op::kMput ? sh->ks->by_part[0][rng.Uniform(keys_p0)]
                                        : rng.Uniform(kKeys);
    const uint64_t k1 = sh->ks->by_part[1][rng.Uniform(keys_p1)];
    o.attempted++;
    TardisClient* client = clients[sh->ks->partition[k0]].get();
    ScopedSpan root(sb, "req", i + 1);
    o.late_us.push_back(
        static_cast<double>(TimeFromDue(due, now, now).late_ns) / 1e3);
    Status s;
    uint64_t idx0 = 0, idx1 = 0;
    if (op == Op::kGet) {
      {
        ScopedSpan span(sb, "client.get", i + 1, root.id());
        s = client->Get(KeyName(k0), &value);
      }
      if (s.ok()) {
        ScopedSpan span(sb, "bench.check", i + 1, root.id());
        std::string why;
        if (!sh->prov->CheckRead(k0, value, &why)) o.Wrong("read: " + why);
      } else if (s.IsNotFound()) {
        o.Wrong("preloaded " + KeyName(k0) + " not found");
      }
    } else if (op == Op::kPut) {
      const std::string v = sh->prov->IssueWrite(writer, k0, &idx0);
      ScopedSpan span(sb, "client.put", i + 1, root.id());
      s = client->Put(KeyName(k0), v);
    } else {
      const std::string v0 = sh->prov->IssueWrite(writer, k0, &idx0);
      const std::string v1 = sh->prov->IssueWrite(writer, k1, &idx1);
      ScopedSpan span(sb, "client.mput", i + 1, root.id());
      s = client->MultiPut({{KeyName(k0), v0}, {KeyName(k1), v1}});
    }
    const int64_t done = NowNs();
    const double us =
        static_cast<double>(TimeFromDue(due, now, done).latency_ns) / 1e3;
    o.sent_us_sum += us;
    o.sent++;
    if (!s.ok() && !s.IsNotFound()) {
      o.failed++;
      if (s.ToString().find("BEHIND") != std::string::npos) o.behind++;
      if (o.first_failure.empty()) o.first_failure = s.ToString();
      continue;
    }
    // Latency populations hold acknowledged requests; failures are
    // counted in failed_frac instead.
    o.all_us.push_back(us);
    (op == Op::kGet ? o.get_us : op == Op::kPut ? o.put_us : o.mput_us)
        .push_back(us);
    if (done - due <= limit_ns) {
      o.within_limit++;
      const size_t j = std::min(
          sh->slices - 1, static_cast<size_t>((due - sh->start_ns) / sh->slice_ns));
      o.slice_ok[j]++;
      o.slice_last_ns[j] = std::max(o.slice_last_ns[j], done);
    }
    if (op != Op::kGet) sh->prov->Ack(writer, idx0, done);
    if (op == Op::kMput) {
      sh->prov->Ack(writer, idx1, done);
      o.mputs.push_back({writer, idx0, idx1});
    }
  }
  for (const auto& c : clients) {
    o.retries += c->retries();
    o.failovers += c->failovers();
    o.requests += c->requests();
  }
}

void Merge(Outcome* into, Outcome&& from) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&into->all_us, from.all_us);
  cat(&into->get_us, from.get_us);
  cat(&into->put_us, from.put_us);
  cat(&into->mput_us, from.mput_us);
  cat(&into->late_us, from.late_us);
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->behind += from.behind;
  into->within_limit += from.within_limit;
  into->slice_ok.resize(from.slice_ok.size());
  into->slice_last_ns.resize(from.slice_last_ns.size());
  for (size_t j = 0; j < into->slice_ok.size(); j++) {
    into->slice_ok[j] += from.slice_ok[j];
    into->slice_last_ns[j] = std::max(into->slice_last_ns[j], from.slice_last_ns[j]);
  }
  into->sent += from.sent;
  into->sent_us_sum += from.sent_us_sum;
  into->retries += from.retries;
  into->failovers += from.failovers;
  into->requests += from.requests;
  into->errors.insert(into->errors.end(), from.errors.begin(), from.errors.end());
  if (into->first_failure.empty()) into->first_failure = from.first_failure;
  into->mputs.insert(into->mputs.end(), from.mputs.begin(), from.mputs.end());
}

// ---- quiesce and check --------------------------------------------------------

/// Reads `keys` from one site with a fresh session (no floors, so a
/// replica answers from its own state).
std::map<uint64_t, std::string> ReadAll(const std::string& endpoint,
                                        const std::vector<uint64_t>& keys,
                                        Result* result) {
  std::map<uint64_t, std::string> out;
  auto c = MakeClient(endpoint, 5000, 11);
  std::string v;
  for (uint64_t k : keys) {
    const Status s = c->Get(KeyName(k), &v);
    if (s.ok()) {
      out[k] = v;
    } else {
      result->Error("after quiesce, " + endpoint + " could not read " +
                    KeyName(k) + ": " + s.ToString());
    }
  }
  return out;
}

uint64_t Leaves(const std::string& endpoint) {
  auto c = MakeClient(endpoint, 5000, 13);
  std::string reply;
  if (!c->Call("leaves", &reply).ok() || reply.rfind("LEAVES ", 0) != 0) {
    throw std::runtime_error("leaves at " + endpoint + " failed: " + reply);
  }
  return strtoull(reply.c_str() + 7, nullptr, 10);
}

}  // namespace

void RunGrid(const RunOptions& opts, Result* result) {
  signal(SIGPIPE, SIG_IGN);
  result->SetParam("backend", kBackend);
  result->SetParam("partitions", std::to_string(kPartitions));
  result->SetParam("replicas", std::to_string(kReplicas));
  result->SetParam("connections", std::to_string(kConnections));
  result->SetParam("keys", std::to_string(kKeys));
  result->SetParam("key_dist", "uniform");
  result->SetParam("rate_per_s", std::to_string(kRatePerS));
  result->SetParam("limit_ms", std::to_string(kLimitMs));
  result->SetParam("deadline_ms", std::to_string(kDeadlineMs));
  result->SetParam("sessions", "one per partition per user");
  result->SetParam("mix", "get 0.70, put 0.25, cross-partition mput 0.05");

  const Keyspace ks = BuildKeyspace();
  Provenance prov(kConnections, kKeys);
  std::vector<double> setup_s;
  std::unique_ptr<Grid> grid;
  for (int i = 0; i < kSetups; i++) {
    grid.reset();  // the previous set-up's processes are reaped first
    double secs = 0;
    grid = SetupOnce(opts, ks, prov, &secs);
    setup_s.push_back(secs);
  }
  result->AddSamples("setup", std::move(setup_s));
  result->SetParam("setups", std::to_string(kSetups));

  std::string repro;
  const int behind_repro = ReproBehind(*grid, ks, prov, opts.seed + 29, &repro);
  result->SetParam("defect_repro_get", repro);

  const GridMetrics before = FetchAll(*grid);
  SpanRecorder recorder(opts.trace);
  LoopShared sh;
  sh.ks = &ks;
  sh.prov = &prov;
  sh.router = grid->router();
  sh.seed = opts.seed;
  sh.start_ns = NowNs() + 20'000'000;  // first request due in 20 ms
  sh.end_ns = sh.start_ns + static_cast<int64_t>(opts.seconds * 1e9);
  sh.slices = std::max<size_t>(1, static_cast<size_t>(opts.seconds));
  sh.slice_ns = (sh.end_ns - sh.start_ns) / static_cast<int64_t>(sh.slices);

  std::vector<Outcome> outs(kConnections);
  for (Outcome& o : outs) {
    o.slice_ok.assign(sh.slices, 0);
    o.slice_last_ns.assign(sh.slices, 0);
  }
  std::vector<std::thread> threads;
  for (uint32_t w = 1; w <= kConnections; w++) {
    SpanBuffer* buf = recorder.NewBuffer();
    threads.emplace_back([&, w, buf] { Worker(&sh, w, buf, &outs[w - 1]); });
  }
  for (auto& t : threads) t.join();
  const int64_t load_end = NowNs();
  const GridMetrics after = FetchAll(*grid);
  const double peak_rss = grid->PeakRssMb();

  Outcome load;
  for (auto& o : outs) Merge(&load, std::move(o));

  // ---- quiesce: replication catch-up, merge any 2PC forks ------------------
  // Catch-up: per partition, the key of the last acknowledged write; wait
  // until the replica reads what the coordinator reads for it.
  double catchup_ms = 0;
  for (uint32_t p = 0; p < kPartitions; p++) {
    const WriteRecord* last = nullptr;
    for (uint32_t w = 1; w <= kConnections; w++) {
      const WriterLog& log = prov.log(w);
      for (uint64_t i = 0; i < log.size(); i++) {
        const WriteRecord* r = log.Find(i);
        if (r->acked && ks.partition[r->key] == p &&
            (last == nullptr || r->ack_ns > last->ack_ns)) {
          last = r;
        }
      }
    }
    if (last == nullptr) continue;
    const std::string key = KeyName(last->key);
    std::string want, got;
    auto coord = MakeClient(grid->site(p, 0), 5000, 19);
    auto repl = MakeClient(grid->site(p, 1), 5000, 23);
    if (!coord->Get(key, &want).ok()) {
      result->Error("coordinator could not read " + key + " after the run");
      continue;
    }
    while (!(repl->Get(key, &got).ok() && got == want)) {
      if (NowNs() - load_end > kQuiesceTimeoutNs) {
        result->Error("replica of partition " + std::to_string(p) +
                      " never served the last acknowledged write");
        break;
      }
      usleep(1'000);
    }
    catchup_ms = std::max(catchup_ms,
                          static_cast<double>(NowNs() - load_end) / 1e6);
  }

  uint64_t max_leaves = 0;
  for (uint32_t p = 0; p < kPartitions; p++) {
    max_leaves = std::max(max_leaves, Leaves(grid->site(p, 0)));
  }
  if (max_leaves > 1) {
    auto c = MakeClient(grid->router(), 10'000, 17);
    std::string reply;
    const Status s = c->Call("merge lww", &reply);
    if (!s.ok()) result->Error("post-run merge failed: " + s.ToString());
    for (uint32_t p = 0; p < kPartitions; p++) {
      if (Leaves(grid->site(p, 0)) != 1) {
        result->Error("partition " + std::to_string(p) +
                      " still has several branches after the merge");
      }
    }
  }
  result->SetParam("post_run_max_leaves", std::to_string(max_leaves));

  // Keys to check: every key any request wrote, plus a sample of the rest
  // (which must still read their preload value).
  std::vector<char> written(kKeys, 0);
  for (uint32_t w = 1; w <= kConnections; w++) {
    const WriterLog& log = prov.log(w);
    for (uint64_t i = 0; i < log.size(); i++) written[log.Find(i)->key] = 1;
  }
  std::vector<std::vector<uint64_t>> check(kPartitions);
  uint64_t untouched = 0;
  for (uint64_t k = 0; k < kKeys; k++) {
    if (written[k] || (untouched++ < kUntouchedSample)) {
      check[ks.partition[k]].push_back(k);
    }
  }
  // Quiesced: each replica reads exactly what its partition's
  // coordinator reads for every checked key.
  std::vector<std::map<uint64_t, std::string>> primary(kPartitions);
  for (uint32_t p = 0; p < kPartitions; p++) {
    primary[p] = ReadAll(grid->site(p, 0), check[p], result);
  }
  std::vector<std::map<uint64_t, std::string>> replica(kPartitions);
  while (true) {
    bool same = true;
    for (uint32_t p = 0; p < kPartitions; p++) {
      Result discard;  // a replica still catching up may miss keys
      replica[p] = ReadAll(grid->site(p, 1), check[p], &discard);
      same = same && replica[p] == primary[p] && Leaves(grid->site(p, 1)) == 1;
    }
    if (same) break;
    if (NowNs() - load_end > kQuiesceTimeoutNs) {
      result->Error("replicas did not converge with their partition within 15 s");
      break;
    }
    usleep(50'000);
  }

  const std::vector<int64_t> latest = prov.LatestAckedIssue();
  for (uint32_t p = 0; p < kPartitions; p++) {
    for (const auto* reads : {&primary[p], &replica[p]}) {
      for (const auto& [k, v] : *reads) {
        std::string why;
        if (!prov.CheckFinalRealTime(k, v, latest[k], &why)) {
          result->Error("after quiesce: " + why);
        }
      }
    }
  }
  // Every acknowledged mput shows both of its writes or later ones.
  uint64_t mput_checks = 0;
  for (const auto& m : load.mputs) {
    for (int j = 1; j <= 2; j++) {
      const WriteRecord* w = prov.log(static_cast<uint32_t>(m[0])).Find(m[j]);
      const uint32_t p = ks.partition[w->key];
      for (const auto* reads : {&primary[p], &replica[p]}) {
        auto it = reads->find(w->key);
        std::string why;
        if (it == reads->end() ||
            !prov.CheckFinalRealTime(w->key, it->second, w->issue_ns, &why)) {
          result->Error("acknowledged mput lost its write to " +
                        KeyName(w->key));
        }
      }
      mput_checks++;
    }
  }
  result->SetParam("mput_checks", std::to_string(mput_checks));

  for (const std::string& e : load.errors) result->Error(e);
  if (!load.first_failure.empty()) {
    fprintf(stderr, "perfbench: first failed request: %s\n",
            load.first_failure.c_str());
  }
  result->attempted = load.attempted;
  result->failed = load.failed;

  // ---- end-to-end ----------------------------------------------------------------
  // Goodput per one-second slice of the schedule: the slice's requests
  // acknowledged within the limit, over the time from the slice's start to
  // the last of their replies. txn_s is the median slice, so a steal burst
  // of a few seconds on a shared host shows in the tail metrics but does
  // not set the run's throughput; a slowdown over most of the run does.
  std::vector<double> goodput;
  for (size_t j = 0; j < sh.slices; j++) {
    const int64_t from = sh.start_ns + static_cast<int64_t>(j) * sh.slice_ns;
    goodput.push_back(load.slice_ok[j] == 0
                          ? 0.0
                          : static_cast<double>(load.slice_ok[j]) * 1e9 /
                                static_cast<double>(load.slice_last_ns[j] - from));
  }
  std::vector<double> sorted = goodput;
  std::sort(sorted.begin(), sorted.end());
  result->Set("txn_s", sorted[(sorted.size() - 1) / 2], "1/s", load.attempted);
  result->AddSamples("goodput", std::move(goodput));
  result->AddSamples("txn", load.all_us);
  result->AddSamples("read", load.get_us);
  result->AddSamples("write", load.put_us);
  result->AddSamples("xpart", load.mput_us);
  result->AddSamples("gen_late", load.late_us);
  result->Set("failed_frac",
              load.attempted ? static_cast<double>(load.failed) / load.attempted : 0, "1",
              load.attempted);
  result->Set("peak_rss_mb", peak_rss, "MiB", kPartitions * kReplicas + 1);
  result->SetParam("behind_failures", std::to_string(load.behind));
  if (!opts.trace) return;

  // ---- per-layer, over the whole traced window --------------------------------
  const GridMetrics& pa = before;
  const GridMetrics& pb = after;
  uint64_t n = 0;
  const double reqs = static_cast<double>(load.sent);
  result->Set("client.retries_per_1k",
              load.requests ? static_cast<double>(load.retries) * 1000 / load.requests : 0,
              "count", load.requests);
  result->Set("client.failovers", static_cast<double>(load.failovers), "count",
              load.requests);
  // The defect repro's refused get (1 while the defect stands) plus any
  // ERR BEHIND failure in the window.
  result->Set("client.behind", static_cast<double>(behind_repro + load.behind),
              "count", load.attempted + 1);
  auto cdelta = [&](const std::string& name, const std::string& label) {
    return Sum(pb.cluster, name, label) - Sum(pa.cluster, name, label);
  };
  result->Set("router.fast_path",
              cdelta("tardis_router_requests", "path=\"fast\""), "count", 1);
  result->Set("router.twopc", cdelta("tardis_router_requests", "path=\"2pc\""),
              "count", 1);
  double stage_sum = 0;
  for (const auto& [metric, stage] :
       std::vector<std::pair<std::string, std::string>>{
           {"twopc.prepare_rtt_us", "prepare_rtt"},
           {"twopc.decide_apply_us", "decide_apply"},
           {"tardisd.queue_wait_us", "queue_wait"},
           {"tardisd.commit_select_us", "commit_select"},
           {"", "wal_fsync"}}) {
    const double mean = StageMean(pa, pb, stage, false, &n);
    if (!metric.empty()) result->Set(metric, mean, "us", n);
    stage_sum += mean * static_cast<double>(n);
  }
  result->Set("twopc.forked_commits",
              cdelta("tardis_2pc_forked_commits", "role=\"participant\""),
              "count", 1);
  result->Set("tardisd.shed", cdelta("tardisd_shed_total", ""), "count", 1);
  result->Set("tardisd.expired", cdelta("tardisd_deadline_expired_total", ""),
              "count", 1);
  {
    // Client latency the server's stages do not account for, per request.
    const double per_req_client = reqs > 0 ? load.sent_us_sum / reqs : 0;
    const double per_req_stages = reqs > 0 ? stage_sum / reqs : 0;
    result->Set("server.unaccounted_us", per_req_client - per_req_stages, "us",
                static_cast<uint64_t>(reqs));
  }
  const double repl_send = StageMean(pa, pb, "repl_send", false, &n);
  result->Set("repl.send_us", repl_send, "us", n);
  result->Set("repl.remote_applied",
              Sum(pb.replicas, "tardis_txn_remote_applied_total", "") -
                  Sum(pa.replicas, "tardis_txn_remote_applied_total", ""),
              "count", 1);
  result->Set("repl.catchup_ms", catchup_ms, "ms", 1);
  for (const auto& [metric, hist] :
       std::vector<std::pair<std::string, std::string>>{
           {"trie.fork_us", "tardis_trie_fork_us"},
           {"trie.merge_us", "tardis_trie_merge_us"}}) {
    const double c = cdelta(hist + "_count", "");
    result->Set(metric, c > 0 ? cdelta(hist + "_sum", "") / c : 0, "us",
                static_cast<uint64_t>(c));
  }
  result->Set("trie.merge_diff_keys", cdelta("tardis_trie_merge_diff_keys", ""),
              "count", 1);
  result->Set("trie.nodes", Sum(pb.cluster, "tardis_trie_nodes", ""), "count", 1);
  result->Set("trie.shared_nodes", Sum(pb.cluster, "tardis_trie_shared_nodes", ""),
              "count", 1);
  const std::vector<SpanRecord> spans = recorder.All();
  const auto selfs = SelfTimes(spans);
  auto it = selfs.find("req");
  result->Set("bench.txn_self_us",
              it == selfs.end() || it->second.count == 0
                  ? 0
                  : static_cast<double>(it->second.self_ns) / 1e3 /
                        static_cast<double>(it->second.count),
              "us", it == selfs.end() ? 0 : it->second.count);
  result->Set("bench.spans_dropped", static_cast<double>(recorder.Dropped()),
              "count", spans.size());
  if (!opts.trace_path.empty()) {
    std::ofstream out(opts.trace_path);
    out << ChromeTraceJson(spans, kTraceFileSpans);
  }
}

}  // namespace perfbench
