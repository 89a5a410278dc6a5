// tardisd: a TARDiS site daemon — one TardisStore + Replicator behind a
// TcpTransport, i.e. one of the paper's replicated sites (§6.4) as a real
// OS process. Sites gossip commits over TCP using the length-prefixed
// CRC-framed wire codec; clients speak a minimal line protocol on a
// separate port.
//
// Usage:
//   tardisd --site=0 --peers=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//           --client-port=8000 [--gc-mode=optimistic|pessimistic]
//           [--dir=PATH] [--backend=mem|btree|trie] [--metrics-port=P]
//           [--workers=N] [--max-queue=N]
//           [--request-deadline-ms=MS] [--tick-ms=MS] [--heartbeats=0|1]
//           [--archive-horizon=N] [--partition=N] [--coord-port=P]
//           [--twopc-resolve-ms=MS] [--slow-ms=MS]
//
// With --coord-port the daemon also serves that port, the address the
// router and peer participants dial (src/cluster/, DESIGN.md §10). Both
// ports speak the same line protocol from one server; the partition
// daemon adds the 2PC verbs prepare/decide/txnstatus (src/cluster/
// twopc_line.h). --partition labels which hash range of the cluster's
// PartitionMap this replica set owns.
//
// --peers lists every site's replication endpoint, indexed by site id;
// entry --site names this daemon's own listen address. With
// --metrics-port the daemon additionally serves the full metrics registry
// as Prometheus text over plain HTTP (GET anything on that port).
//
// Overload safety: both ports are one server::LineServer — a bounded
// queue (--max-queue) drained by --workers threads. When the queue is
// full new requests are shed with "ERR BUSY …" (retryable); a request
// that waits in the queue past --request-deadline-ms is answered
// "ERR DEADLINE …" (retryable) without being executed. SIGTERM drains
// gracefully: stop accepting, finish the queued work, flush the WAL, wait
// for the transport to push out the last gossip, then exit 0 — locally
// committed transactions survive restart.
//
// Client commands (one per line; single-line replies unless noted):
//
//   ping                  liveness probe -> PONG
//   put <key> <value>     commit a single-key transaction -> OK
//   mput <k> <v> [<k> <v>]...  commit one multi-key transaction -> OK
//   get <key>             read on this site's branch -> VALUE <v> | NOTFOUND
//   merge [counter|lww]   merge all branch tips -> MERGED <n> | NOMERGE
//   leaves                number of branch tips -> LEAVES <n>
//   states                State DAG size -> STATES <n>
//   sync                  broadcast a recovery sync request -> OK
//   peers                 handshaked outbound peers -> PEERS <n>
//   health                liveness + floors + queue depth, multi-line, "END"
//   isolate <site>        cut traffic to/from <site> at this endpoint -> OK
//   heal                  undo all isolates -> OK
//   metrics [prom|table]  full registry dump, multi-line, terminated "END"
//   stats                 alias of `metrics table`
//   trace start|stop      toggle the branch-lifecycle tracer -> OK
//   trace dump <path>     write captured events as Chrome trace JSON -> OK
//   trace json            stream the Chrome trace JSON inline, ends "END"
//   sleep <ms>            hold a worker for <ms> (overload testing) -> OK
//   quit                  close this client connection
//   shutdown              drain and exit the daemon
//   prepare|decide|txnstatus ...  2PC participant verbs (with --coord-port;
//                         twopc_line.h) -> 2PC <txn> <decision> [FORKED]
//
// Retryable errors ("ERR BUSY", "ERR DEADLINE", "ERR SHUTTING_DOWN") mean
// the request was NOT executed; clients back off and resend (see
// util/backoff.h and the driver's retry helper).
//
// Any command line may carry a leading "*T<trace>/<span>/<flags>" header
// (obs::StripTraceHeader): the server binds that distributed-trace
// context for the request, so the daemon's spans join the caller's
// trace. --slow-ms=MS logs a structured warning for any request slower
// than MS, with the trace id and the per-stage latency breakdown.
//
// After the trace header a line (other than a 2PC verb, which carries its
// session tag as arguments) may carry an exactly-once session header
// "*S<sid>/<seq>/<attempt>/<flags>[/floors]" (DESIGN.md §13): sessioned
// writes are deduped against the per-site table and answered
// "OK STATE <site>:<seq>"; sessioned requests whose read floors this
// site has not caught up to are refused "ERR BEHIND" (retryable at
// another site) unless the header sets the stale-ok flag; and sessioned
// replies are prefixed with a "*F<site>:<seq>,..." floor token the
// client folds back into its session. A corrupt or oversized session
// header is rejected with retryable "ERR HEADER" — never silently
// stripped, which would turn a dedupable write into a blind one.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/line_connection.h"
#include "cluster/twopc.h"
#include "core/session.h"
#include "net/tcp_transport.h"
#include "obs/exposition.h"
#include "obs/http_exporter.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "replication/replicator.h"
#include "server/line_server.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/socket.h"

namespace tardis {
namespace {

struct DaemonConfig {
  uint32_t site = 0;
  std::vector<TcpPeer> endpoints;  // every site, indexed by site id
  /// The client and coordination ports and their one worker pool:
  /// --client-port, --coord-port (second_port, 0 disables it),
  /// --workers, --max-queue and --request-deadline-ms.
  server::LineServerOptions serving;
  uint16_t metrics_port = 0;  ///< 0 disables the HTTP metrics endpoint
  GcCoordination gc_mode = GcCoordination::kOptimistic;
  std::string dir;
  /// Record backend (--backend=mem|btree|trie). Unset picks the
  /// deployment default: btree when --dir is set, mem otherwise.
  std::optional<RecordBackend> backend;
  uint64_t tick_ms = 50;
  bool heartbeats = true;
  size_t archive_horizon = 4096;
  /// Partition-grid membership (see src/cluster/): which partition of the
  /// cluster's PartitionMap this replica set serves (-1 = unpartitioned).
  int64_t partition = -1;
  /// Grace before an in-doubt 2PC transaction is resolved cooperatively.
  /// Must exceed the router's 2PC deadline.
  uint64_t twopc_resolve_ms = 5000;
  /// Requests slower than this log a structured slow-request warning with
  /// the trace id and per-stage breakdown (0 = off).
  uint64_t slow_ms = 0;
  bool help = false;  ///< --help: print usage, exit 0
};

bool ParseEndpoints(const std::string& list, std::vector<TcpPeer>* out) {
  std::stringstream ss(list);
  std::string entry;
  uint32_t site = 0;
  while (std::getline(ss, entry, ',')) {
    TcpPeer p;
    p.site = site++;
    if (!ParseEndpoint(entry, &p.host, &p.port).ok()) return false;
    out->push_back(std::move(p));
  }
  return out->size() >= 2;
}

bool ParseFlags(int argc, char** argv, DaemonConfig* config) {
  // Millisecond flags stay far from overflowing a NowMillis() sum.
  constexpr uint64_t kMaxMs = UINT32_MAX;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    // A numeric flag must be decimal within [lo, hi]; anything else is a
    // usage error rather than a silently wrapped or truncated setting.
    bool ok = true;
    auto num = [&](const char* v, uint64_t lo, uint64_t hi, auto* out) {
      uint64_t n = 0;
      ok = ParseUint(v, lo, hi, &n);
      if (ok) *out = static_cast<std::remove_pointer_t<decltype(out)>>(n);
    };
    if (const char* v = value("--site=")) {
      num(v, 0, UINT32_MAX, &config->site);
    } else if (const char* v = value("--peers=")) {
      ok = ParseEndpoints(v, &config->endpoints);
    } else if (const char* v = value("--client-port=")) {
      ok = ParsePort(v, &config->serving.port);
    } else if (const char* v = value("--metrics-port=")) {
      ok = ParsePort(v, &config->metrics_port);
    } else if (const char* v = value("--gc-mode=")) {
      if (strcmp(v, "pessimistic") == 0) {
        config->gc_mode = GcCoordination::kPessimistic;
      } else {
        ok = strcmp(v, "optimistic") == 0;
      }
    } else if (const char* v = value("--dir=")) {
      config->dir = v;
    } else if (const char* v = value("--backend=")) {
      config->backend = ParseRecordBackend(v);
      if (!config->backend) {
        fprintf(stderr, "tardisd: unknown --backend=%s (want mem|btree|trie)\n",
                v);
        return false;
      }
    } else if (const char* v = value("--workers=")) {
      num(v, 1, 256, &config->serving.workers);
    } else if (const char* v = value("--max-queue=")) {
      num(v, 1, 1'000'000, &config->serving.max_queue);
    } else if (const char* v = value("--request-deadline-ms=")) {
      num(v, 0, kMaxMs, &config->serving.request_deadline_ms);
    } else if (const char* v = value("--tick-ms=")) {
      num(v, 1, kMaxMs, &config->tick_ms);
    } else if (const char* v = value("--heartbeats=")) {
      num(v, 0, 1, &config->heartbeats);
    } else if (const char* v = value("--archive-horizon=")) {
      num(v, 1, UINT32_MAX, &config->archive_horizon);
    } else if (const char* v = value("--partition=")) {
      num(v, 0, UINT32_MAX, &config->partition);
    } else if (const char* v = value("--coord-port=")) {
      ok = ParsePort(v, &config->serving.second_port);
    } else if (const char* v = value("--twopc-resolve-ms=")) {
      num(v, 0, kMaxMs, &config->twopc_resolve_ms);
    } else if (const char* v = value("--slow-ms=")) {
      num(v, 0, kMaxMs, &config->slow_ms);
    } else if (arg == "--help" || arg == "-h") {
      config->help = true;
      return false;  // caller prints the full usage text
    } else {
      fprintf(stderr, "tardisd: unknown flag %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      fprintf(stderr, "tardisd: bad value in %s\n", arg.c_str());
      return false;
    }
  }
  if (!config->backend) {
    config->backend =
        config->dir.empty() ? RecordBackend::kMem : RecordBackend::kBTree;
  }
  if (config->dir.empty() != (*config->backend != RecordBackend::kBTree)) {
    fprintf(stderr, "tardisd: --backend=%s %s\n",
            RecordBackendName(*config->backend),
            config->dir.empty() ? "needs --dir"
                                : "cannot persist records; --dir needs btree");
    return false;
  }
  return !config->endpoints.empty() && config->site < config->endpoints.size() &&
         config->serving.port != 0;
}

/// Merges all current branch tips into one state. `counter` resolves each
/// conflicting key as fork value + sum of per-branch deltas (the paper's
/// running counter example); `lww` keeps the largest value. Deterministic,
/// so any site may run it and all sites converge on the same record.
std::string DoMerge(TardisStore* store, ClientSession* session,
                    const std::string& strategy) {
  auto m = store->BeginMerge(session);
  if (!m.ok()) return "ERR " + m.status().ToString();
  const std::vector<StateId> parents = (*m)->parents();
  if (parents.size() < 2) {
    (*m)->Abort();
    return "NOMERGE";
  }
  auto conflicts = (*m)->FindConflictWrites(parents);
  if (!conflicts.ok()) {
    (*m)->Abort();
    return "ERR " + conflicts.status().ToString();
  }
  auto forks = (*m)->FindForkPoints(parents);
  if (!forks.ok()) {
    (*m)->Abort();
    return "ERR " + forks.status().ToString();
  }
  for (const std::string& key : *conflicts) {
    std::string merged;
    if (strategy == "counter") {
      std::string fv;
      const long long base =
          (*m)->GetForId(key, (*forks)[0], &fv).ok() ? atoll(fv.c_str()) : 0;
      long long result = base;
      for (StateId p : parents) {
        std::string bv;
        const long long branch =
            (*m)->GetForId(key, p, &bv).ok() ? atoll(bv.c_str()) : base;
        result += branch - base;
      }
      merged = std::to_string(result);
    } else {  // lww: largest value wins (deterministic at every site)
      for (StateId p : parents) {
        std::string bv;
        if ((*m)->GetForId(key, p, &bv).ok() && bv > merged) merged = bv;
      }
    }
    Status s = (*m)->Put(key, merged);
    if (!s.ok()) {
      (*m)->Abort();
      return "ERR " + s.ToString();
    }
  }
  Status s = (*m)->Commit();
  if (!s.ok()) return "ERR " + s.ToString();
  return "MERGED " + std::to_string(parents.size());
}

/// What the request path reaches: the site's flags, store, replication
/// and serving state. RunDaemon owns all of it and outlives both servers.
struct Daemon {
  const DaemonConfig* config = nullptr;
  TardisStore* store = nullptr;
  Replicator* replicator = nullptr;
  TcpTransport* transport = nullptr;
  obs::MetricsRegistry* registry = nullptr;
  const server::LineServer* server = nullptr;  ///< queue, shed, drain state
  /// Serves the 2PC verbs; null without --coord-port.
  cluster::TwoPhaseParticipant* participant = nullptr;
};

const char* LivenessName(PeerLiveness s) {
  switch (s) {
    case PeerLiveness::kAlive:
      return "alive";
    case PeerLiveness::kSuspect:
      return "suspect";
    case PeerLiveness::kDead:
      return "dead";
  }
  return "unknown";
}

std::string HandleCommand(const std::string& line, const Daemon& d,
                          ClientSession* session, bool* close_conn,
                          bool* shutdown, const SessionHeader* sess = nullptr) {
  std::stringstream ss(line);
  std::string cmd;
  ss >> cmd;
  if (cmd == "ping") return "PONG";
  if (cmd == "put") {
    std::string key;
    ss >> key;
    std::string value;
    std::getline(ss, value);
    if (!value.empty() && value[0] == ' ') value.erase(0, 1);
    if (key.empty()) return "ERR usage: put <key> <value>";
    auto txn = d.store->Begin(session);
    if (!txn.ok()) return "ERR " + txn.status().ToString();
    const bool tagged = sess != nullptr && sess->write();
    if (tagged) (*txn)->SetSessionTag(sess->session_id, sess->seq);
    Status s = (*txn)->Put(key, value);
    if (s.ok()) s = (*txn)->Commit();
    if (!s.ok()) return "ERR " + s.ToString();
    // Sessioned writes name the commit they produced, so a retry served
    // from dedup can return the identical reply.
    if (tagged && session->last_commit() != nullptr) {
      return "OK STATE " + session->last_commit()->guid().ToString();
    }
    return "OK";
  }
  if (cmd == "mput") {
    // Atomic multi-key write: one local transaction, tagged like put.
    std::vector<std::pair<std::string, std::string>> writes;
    std::string key, value;
    while (ss >> key >> value) writes.emplace_back(key, value);
    if (writes.empty()) return "ERR usage: mput <key> <value> [...]";
    auto txn = d.store->Begin(session);
    if (!txn.ok()) return "ERR " + txn.status().ToString();
    const bool tagged = sess != nullptr && sess->write();
    if (tagged) (*txn)->SetSessionTag(sess->session_id, sess->seq);
    for (const auto& [k, v] : writes) {
      Status s = (*txn)->Put(k, v);
      if (!s.ok()) {
        (*txn)->Abort();
        return "ERR " + s.ToString();
      }
    }
    Status s = (*txn)->Commit();
    if (!s.ok()) return "ERR " + s.ToString();
    if (tagged && session->last_commit() != nullptr) {
      return "OK STATE " + session->last_commit()->guid().ToString();
    }
    return "OK";
  }
  if (cmd == "get") {
    std::string key;
    ss >> key;
    auto txn = d.store->Begin(session);
    if (!txn.ok()) return "ERR " + txn.status().ToString();
    std::string value;
    Status s = (*txn)->Get(key, &value);
    (*txn)->Abort();
    if (s.IsNotFound()) return "NOTFOUND";
    return s.ok() ? "VALUE " + value : "ERR " + s.ToString();
  }
  if (cmd == "merge") {
    std::string strategy = "lww";
    ss >> strategy;
    return DoMerge(d.store, session, strategy);
  }
  if (cmd == "leaves") {
    return "LEAVES " + std::to_string(d.store->dag()->Leaves().size());
  }
  if (cmd == "states") {
    return "STATES " + std::to_string(d.store->dag()->state_count());
  }
  if (cmd == "sync") {
    d.replicator->RequestSync();
    return "OK";
  }
  if (cmd == "peers") {
    uint32_t connected = 0;
    for (uint32_t s = 0; s < d.transport->num_sites(); s++) {
      if (s != d.config->site && d.transport->IsConnected(s)) connected++;
    }
    return "PEERS " + std::to_string(connected);
  }
  if (cmd == "health") {
    // Machine-readable, one item per line, END-terminated:
    //   SITE <id> tick=<n> queue=<n> workers=<n> shed=<n> expired=<n>
    //        draining=<0|1> pending=<n> deferred_gc=<n> metrics_port=<n>
    //        queue_bound=<n> partition=<n|-1> coord_port=<n>
    //        twopc_in_doubt=<n>
    //   PEER <id> state=<alive|suspect|dead> connected=<0|1>
    //        last_heard_tick=<n> flaps=<n>
    //   FLOOR <origin> <seq>
    std::string out = "SITE " + std::to_string(d.config->site);
    out += " tick=" + std::to_string(d.replicator->tick_count());
    const server::LineServer& srv = *d.server;
    out += " queue=" + std::to_string(srv.queue_depth());
    out += " workers=" + std::to_string(d.config->serving.workers);
    out += " shed=" + std::to_string(srv.shed_total());
    out += " expired=" + std::to_string(srv.expired_total());
    out += " draining=" + std::to_string(srv.draining() ? 1 : 0);
    out += " pending=" + std::to_string(d.replicator->pending_count());
    out += " deferred_gc=" +
           std::to_string(d.replicator->deferred_consent_count());
    // Appended fields only (drivers match on the prefix fields above).
    out += " metrics_port=" + std::to_string(d.config->metrics_port);
    out += " queue_bound=" + std::to_string(d.config->serving.max_queue);
    out += " partition=" + std::to_string(d.config->partition);
    out += " coord_port=" + std::to_string(srv.second_port());
    out += " twopc_in_doubt=" +
           std::to_string(d.participant != nullptr
                              ? d.participant->in_doubt_count()
                              : 0);
    out += std::string(" backend=") + d.store->backend_name();
    out += "\n";
    for (const Replicator::PeerHealth& p : d.replicator->PeerStates()) {
      out += "PEER " + std::to_string(p.site);
      out += std::string(" state=") + LivenessName(p.state);
      out += " connected=" +
             std::to_string(d.transport->IsConnected(p.site) ? 1 : 0);
      out += " last_heard_tick=" + std::to_string(p.last_heard_tick);
      out += " flaps=" + std::to_string(p.flaps);
      out += "\n";
    }
    for (const auto& [origin, seq] : d.replicator->AppliedFloors()) {
      out += "FLOOR " + std::to_string(origin) + " " + std::to_string(seq) +
             "\n";
    }
    return out + "END";
  }
  if (cmd == "isolate") {
    uint32_t peer = 0;
    // Failed extraction zeroes the value; test the stream, not a sentinel.
    if (!(ss >> peer) || peer >= d.transport->num_sites()) {
      return "ERR usage: isolate <site>";
    }
    d.transport->Partition(d.config->site, peer);
    return "OK";
  }
  if (cmd == "heal") {
    d.transport->HealAll();
    return "OK";
  }
  if (cmd == "metrics" || cmd == "stats") {
    // Multi-line reply; "END" terminates it so line-oriented clients know
    // where the dump stops.
    std::string format = cmd == "stats" ? "table" : "prom";
    ss >> format;
    const std::vector<obs::Sample> samples = d.registry->Collect();
    std::string body = format == "table" ? obs::RenderTable(samples)
                                         : obs::RenderPrometheus(samples);
    if (!body.empty() && body.back() != '\n') body.push_back('\n');
    return body + "END";
  }
  if (cmd == "trace") {
    std::string sub;
    ss >> sub;
    if (sub == "start") {
      obs::Tracer::Get().Enable();
      return "OK";
    }
    if (sub == "stop") {
      obs::Tracer::Get().Disable();
      return "OK";
    }
    if (sub == "dump") {
      std::string path;
      ss >> path;
      if (path.empty()) return "ERR usage: trace dump <path>";
      std::ofstream out(path, std::ios::trunc);
      if (!out) return "ERR cannot open " + path;
      out << obs::Tracer::Get().DumpChromeTrace();
      return "OK " + std::to_string(obs::Tracer::Get().EventCount());
    }
    if (sub == "json") {
      // Inline dump for remote collectors (tardis-tracectl, the router's
      // `trace collect`): no shared filesystem required.
      std::string body = obs::Tracer::Get().DumpChromeTrace();
      if (!body.empty() && body.back() != '\n') body.push_back('\n');
      return body + "END";
    }
    return "ERR usage: trace start|stop|json|dump <path>";
  }
  if (cmd == "sleep") {
    // Test hook: pin a worker for a while so drivers can provoke queue
    // growth and shedding deterministically.
    int ms = 0;
    if (!(ss >> ms) || ms < 0 || ms > 60'000) return "ERR usage: sleep <ms>";
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return "OK";
  }
  if (cmd == "quit") {
    *close_conn = true;
    return "BYE";
  }
  if (cmd == "shutdown") {
    *close_conn = true;
    *shutdown = true;
    return "BYE";
  }
  return "ERR unknown command '" + cmd + "'";
}

/// Session-aware execution front door (DESIGN.md §13) for every command
/// but the 2PC verbs: validates/strips the `*S` header (corrupt ->
/// retryable ERR HEADER + counter, never silently stripped), enforces the
/// session's read floors (ERR BEHIND unless stale-ok), answers retried
/// sessioned writes from the dedup table, and prefixes sessioned replies
/// with this site's floor token.
std::string ExecuteSessionLine(std::string line, const Daemon& d,
                               ClientSession* session, bool* close_conn,
                               bool* shutdown) {
  SessionHeader sess;
  const SessionHeaderStatus hs = StripSessionHeader(&line, &sess);
  if (hs == SessionHeaderStatus::kMalformed) {
    d.store->session_dedup()->IncrementRejected();
    return "ERR HEADER malformed or oversized session header; retry with "
           "a valid *S token";
  }
  if (hs == SessionHeaderStatus::kAbsent) {
    return HandleCommand(line, d, session, close_conn, shutdown);
  }

  // Read-your-writes / monotonic reads: this site must have applied
  // everything the session has already seen, unless the client opted
  // into bounded staleness for this request.
  if (!sess.stale_ok() &&
      !SessionFloorsCovered(sess, d.config->site, d.store->dag()->local_seq(),
                            d.replicator->AppliedFloors())) {
    return "ERR BEHIND site missing session writes; retry elsewhere";
  }

  std::string reply;
  GlobalStateId prior;
  if (sess.write() && sess.seq != 0 &&
      d.store->session_dedup()->Lookup(sess.session_id, sess.seq, &prior)) {
    // Retried write already applied (here or at its origin): answer the
    // original outcome instead of minting a sibling branch.
    reply = "OK STATE " + prior.ToString();
  } else {
    reply = HandleCommand(line, d, session, close_conn, shutdown, &sess);
  }

  // Tell the client how far this site has caught up, so its next request
  // carries floors that hold its reads monotonic across failover.
  std::map<uint32_t, uint64_t> floors = d.replicator->AppliedFloors();
  uint64_t& mine = floors[d.config->site];
  const uint64_t local = d.store->dag()->local_seq();
  if (local > mine) mine = local;
  return FormatFloorToken(floors) + " " + reply;
}

/// The client-port handler of one connection: runs each request inside a
/// stage breakdown, so a --slow-ms overrun can log where the time went.
server::LineReply ServeClientLine(const server::LineRequest& req,
                                  const Daemon& d, ClientSession* session) {
  obs::StageBreakdown breakdown;
  obs::StageCollectorScope collect(&breakdown);
  const uint64_t start_us = NowMicros();
  breakdown.Note("queue_wait", req.queue_wait_us);
  obs::TraceSpan::Emit("stage", "queue_wait", req.enqueued_us,
                       req.queue_wait_us);
  server::LineReply reply;
  {
    TARDIS_TRACE_SPAN("daemon", "request");
    // The 2PC verbs carry their session tag as arguments and skip the
    // session front door: its floors would be another partition's.
    if (d.participant != nullptr &&
        cluster::IsTwoPhaseVerb(req.line.substr(0, req.line.find(' ')))) {
      reply.text = d.participant->Serve(req.line);
    } else {
      reply.text = ExecuteSessionLine(req.line, d, session, &reply.close_conn,
                                      &reply.shutdown);
    }
  }
  const uint64_t total_us = NowMicros() - start_us;
  if (d.config->slow_ms > 0 && total_us >= d.config->slow_ms * 1000) {
    const std::string cmd = req.line.substr(0, req.line.find(' '));
    TARDIS_WARN(
        "site %u: slow request cmd=%s trace=%016llx total=%lluus "
        "queue_wait=%lluus stages: %s",
        d.config->site, cmd.c_str(),
        static_cast<unsigned long long>(obs::CurrentTraceContext().trace_id),
        static_cast<unsigned long long>(total_us),
        static_cast<unsigned long long>(req.queue_wait_us),
        breakdown.Format().c_str());
  }
  return reply;
}

int RunDaemon(const DaemonConfig& config) {
  SetLogSite(static_cast<int>(config.site));
  // Label this process's rows in a stitched cross-process Chrome trace.
  obs::Tracer::Get().SetProcessLabel(
      config.partition >= 0
          ? "tardisd-p" + std::to_string(config.partition) + "-site" +
                std::to_string(config.site)
          : "tardisd-site" + std::to_string(config.site));

  // One registry for the whole process: store, GC, replicator and
  // transport all register here, so `metrics` and --metrics-port expose
  // every subsystem in one dump. Created first so it outlives them all.
  auto registry = std::make_shared<obs::MetricsRegistry>();

  TcpTransportOptions net_options;
  net_options.site_id = config.site;
  net_options.listen_host = config.endpoints[config.site].host;
  net_options.listen_port = config.endpoints[config.site].port;
  for (const TcpPeer& p : config.endpoints) {
    if (p.site != config.site) net_options.peers.push_back(p);
  }
  auto transport = TcpTransport::Open(net_options);
  if (!transport.ok()) {
    fprintf(stderr, "tardisd: transport: %s\n",
            transport.status().ToString().c_str());
    return 1;
  }
  (*transport)->BindMetrics(registry.get(), config.site);

  TardisOptions store_options;
  store_options.site_id = config.site;
  store_options.dir = config.dir;
  store_options.backend = *config.backend;
  store_options.metrics_registry = registry;
  auto store = TardisStore::Open(store_options);
  if (!store.ok()) {
    fprintf(stderr, "tardisd: store: %s\n", store.status().ToString().c_str());
    return 1;
  }

  ReplicatorOptions repl_options(config.gc_mode);
  repl_options.tick_interval_ms = config.tick_ms;
  repl_options.heartbeat_every_ticks = config.heartbeats ? 1 : 0;
  repl_options.archive_horizon = config.archive_horizon;
  Replicator replicator(store->get(), transport->get(), config.site,
                        repl_options);
  if (!config.dir.empty()) {
    // The store may have just crash-recovered; rebuild the gossip archive
    // so this site can serve anti-entropy for its pre-crash history.
    replicator.ReArchiveFromStore();
  }
  replicator.Start();

  // Partition-grid membership: the participant side of cross-partition
  // 2PC, served on the coordination port. Its twopc.log lives beside the
  // store's WAL so prepare/decide records share the store's
  // crash-recovery story.
  std::unique_ptr<cluster::TwoPhaseParticipant> participant;
  if (config.serving.second_port != 0) {
    cluster::TwoPhaseOptions twopc_options;
    twopc_options.dir = config.dir;
    twopc_options.self_endpoint =
        "127.0.0.1:" + std::to_string(config.serving.second_port);
    twopc_options.resolve_grace_ms = config.twopc_resolve_ms;
    twopc_options.query_peer = [](const std::string& endpoint,
                                  uint64_t txn_id,
                                  cluster::TwoPhaseDecision* decision) {
      const uint64_t deadline_ms = NowMillis() + 1000;
      client::LineConnection conn;
      TARDIS_RETURN_IF_ERROR(conn.Connect(endpoint, deadline_ms));
      std::string line;
      TARDIS_RETURN_IF_ERROR(conn.Call(cluster::FormatTxnStatus(txn_id), false,
                                       deadline_ms, &line));
      cluster::TwoPhaseReply reply;
      TARDIS_RETURN_IF_ERROR(cluster::ParseTwoPhaseReply(line, &reply));
      *decision = reply.decision;
      return Status::OK();
    };
    participant = std::make_unique<cluster::TwoPhaseParticipant>(
        store->get(), std::move(twopc_options));
    Status recover_status = participant->Recover();
    if (!recover_status.ok()) {
      fprintf(stderr, "tardisd: twopc recovery: %s\n",
              recover_status.ToString().c_str());
      return 1;
    }
  }

  Daemon daemon;
  daemon.config = &config;
  daemon.store = store->get();
  daemon.replicator = &replicator;
  daemon.transport = transport->get();
  daemon.registry = registry.get();
  daemon.participant = participant.get();
  // Both ports: one LineServer (bounded queue, deadlines, drain) with a
  // ClientSession per connection. Router traffic queues with client
  // traffic and answers ERR BUSY / ERR DEADLINE / ERR SHUTTING_DOWN
  // under the same rules.
  server::LineServer client_server(config.serving, [&] {
    std::shared_ptr<ClientSession> session = (*store)->CreateSession();
    return [&, session](const server::LineRequest& req) {
      return ServeClientLine(req, daemon, session.get());
    };
  });
  client_server.BindMetrics(registry.get(), "tardisd",
                            {{"site", std::to_string(config.site)}},
                            obs::RegisterStageHistogram(registry.get(),
                                                        "queue_wait"));
  daemon.server = &client_server;

  Status listen_status = client_server.Listen();
  if (!listen_status.ok()) {
    fprintf(stderr, "tardisd: listen %s\n", listen_status.ToString().c_str());
    return 1;
  }
  // The resolver queries peers on its own thread, so a stopped or
  // unreachable peer never stalls serving.
  if (participant) participant->StartResolver(500);
  std::unique_ptr<obs::MetricsHttpExporter> metrics_http;
  if (config.metrics_port != 0) {
    // registry outlives the exporter (reset before the final flush below).
    metrics_http = std::make_unique<obs::MetricsHttpExporter>(
        config.metrics_port, registry.get(), "tardisd");
    if (!metrics_http->serving()) return 1;
  }

  client_server.DrainOnTermSignals();

  printf("tardisd: site %u serving clients on port %u, replication on %u, "
         "queue bound %zu",
         config.site, config.serving.port, (*transport)->listen_port(),
         config.serving.max_queue);
  if (config.metrics_port != 0) {
    printf(", metrics on http port %u", config.metrics_port);
  }
  if (participant) {
    printf(", partition %lld coord port %u",
           static_cast<long long>(config.partition),
           config.serving.second_port);
  }
  printf("\n");
  fflush(stdout);

  client_server.Run();

  // Drain epilogue (both ports have drained and their workers are
  // stopped): persist everything local, and give the transport a moment
  // to push out the final gossip so peers do not need anti-entropy for
  // what we already acknowledged.
  metrics_http.reset();
  // The resolver stops before the final flush; staged-but-undecided 2PC
  // transactions die with the process and are re-resolved from twopc.log
  // on restart.
  participant.reset();

  Status flush_status = (*store)->Flush();
  if (!flush_status.ok()) {
    TARDIS_WARN("site %u: final flush: %s", config.site,
                flush_status.ToString().c_str());
  }
  const uint64_t gossip_deadline = NowMillis() + 2'000;
  while ((*transport)->HasInflight() && NowMillis() < gossip_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  replicator.Stop();
  (*transport)->Shutdown();
  TARDIS_INFO("site %u: drained, exiting", config.site);
  return 0;
}

}  // namespace
}  // namespace tardis

int main(int argc, char** argv) {
  tardis::DaemonConfig config;
  if (!tardis::ParseFlags(argc, argv, &config)) {
    FILE* out = config.help ? stdout : stderr;
    fprintf(out,
            "usage: tardisd --site=N --peers=host:port,... --client-port=P\n"
            "               [--gc-mode=optimistic|pessimistic] [--dir=PATH]\n"
            "               [--backend=mem|btree|trie]\n"
            "               [--metrics-port=P] [--workers=1..256]\n"
            "               [--max-queue=N]\n"
            "               [--request-deadline-ms=MS] [--tick-ms=MS]\n"
            "               [--heartbeats=0|1] [--archive-horizon=N]\n"
            "               [--partition=N] [--coord-port=P]\n"
            "               [--twopc-resolve-ms=MS] [--slow-ms=MS] [--help]\n"
            "--peers is indexed by site id and must name every site,\n"
            "including this one's own replication endpoint.\n"
            "--backend picks the record storage: btree, the only one that\n"
            "persists records (default with --dir, and --dir requires it),\n"
            "or one of the in-memory backends mem (default without --dir)\n"
            "and trie, a copy-on-write trie (DESIGN.md section 12).\n"
            "--metrics-port serves the metrics registry as Prometheus text\n"
            "over HTTP (off when absent); --max-queue bounds the client\n"
            "request queue (requests past the bound are shed with ERR BUSY).\n"
            "--coord-port serves the line protocol on a second port for\n"
            "tardis-router and peer participants, with the 2PC verbs\n"
            "prepare/decide/txnstatus; both ports share one queue and\n"
            "worker pool. With --partition it enrolls this site in a\n"
            "partitioned grid (see DESIGN.md section 10);\n"
            "--twopc-resolve-ms is the in-doubt cooperative-resolution\n"
            "grace and must exceed the router's 2PC deadline.\n"
            "--slow-ms logs requests slower than MS with their trace id\n"
            "and per-stage latency breakdown (0 = disabled).\n"
            "Numeric flags take unsigned decimals; a malformed or\n"
            "out-of-range value is a usage error.\n");
    return config.help ? 0 : 2;
  }
  return tardis::RunDaemon(config);
}
