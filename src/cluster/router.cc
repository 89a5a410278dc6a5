#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <sstream>
#include <thread>

#include "cluster/twopc_line.h"
#include "fault/fault_points.h"
#include "obs/exposition.h"
#include "obs/stage.h"
#include "obs/trace_stitch.h"
#include "server/line_server.h"
#include "util/clock.h"
#include "util/logging.h"

namespace tardis {
namespace cluster {

namespace {

/// Prefixes an outgoing line with the thread's trace context, so the
/// receiving daemon's spans join this trace.
std::string WithTrace(const std::string& line) {
  const obs::TraceContext& ctx = obs::CurrentTraceContext();
  return ctx.active() ? obs::FormatTraceHeader(ctx) + " " + line : line;
}

/// Multi-line partition replies arrive without their END terminator;
/// the fan-out aggregators want each body newline-terminated.
std::string Terminated(std::string body) {
  if (!body.empty() && body.back() != '\n') body.push_back('\n');
  return body;
}

/// Txn ids must not repeat across router instances or restarts (a
/// participant may still hold an old id in pending_/decided_ and would
/// answer a new transaction with the stale decision). Wall-clock seeds
/// alone collide — two routers started in the same microsecond, or a
/// restart landing inside a predecessor's id range — so the high 32
/// bits are random per instance and the low 32 bits count transactions.
uint64_t TxnIdSeed() {
  std::random_device rd;
  const uint64_t now_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  // Fold the clock in as well in case random_device is weak on this
  // platform; only the high half seeds, the low half stays a counter.
  const uint64_t hi =
      (static_cast<uint64_t>(rd()) ^ (now_us * 0x9e3779b97f4a7c15ULL)) &
      0xffffffffULL;
  return hi << 32;
}

}  // namespace

Router::Router(PartitionMap map, RouterOptions options,
               obs::MetricsRegistry* registry)
    : map_(std::move(map)),
      options_(std::move(options)),
      registry_(registry),
      next_txn_id_(TxnIdSeed()),
      sample_every_(options_.trace_sample) {
  conns_.resize(map_.partition_count());
  for (auto& c : conns_) c = std::make_unique<client::LineConnection>();
  requests_fast_ = registry->RegisterCounter(
      "tardis_router_requests", "Client commands handled by the router",
      {{"path", "fast"}});
  requests_2pc_ = registry->RegisterCounter(
      "tardis_router_requests", "Client commands handled by the router",
      {{"path", "2pc"}});
  prepares_ = registry->RegisterCounter(
      "tardis_2pc_prepares", "Cross-partition prepares sent",
      {{"role", "router"}});
  forked_commits_ = registry->RegisterCounter(
      "tardis_2pc_forked_commits",
      "2PC decide-commits that forked a participant DAG",
      {{"role", "router"}});
  header_rejected_ = registry->RegisterCounter(
      "tardis_session_header_rejected",
      "Requests rejected for a corrupt or oversized *S session header");
  prepare_rtt_us_ = obs::RegisterStageHistogram(registry, "prepare_rtt");
}

Router::~Router() = default;

Status Router::CallPartition(uint32_t p, const std::string& line,
                             bool multi, std::string* reply,
                             uint64_t deadline_ms) {
  // Each wire operation (dial or call) gets at most the per-call timeout,
  // clipped to whatever remains of the caller's deadline: a CallPartition
  // that could block for several full timeouts (connect + call + re-dial
  // + call) would otherwise let the prepare phase outlive the
  // participants' presumed-abort grace period. 0 = the budget is spent.
  const auto op_deadline = [&]() -> uint64_t {
    const uint64_t now = NowMillis();
    if (deadline_ms == 0) return now + options_.call_timeout_ms;
    if (now >= deadline_ms) return 0;
    return now + std::min<uint64_t>(options_.call_timeout_ms,
                                    deadline_ms - now);
  };
  const Status overdue = Status::Aborted("2pc deadline exceeded");
  client::LineConnection* conn = conns_[p].get();
  const std::string wire = WithTrace(line);
  const auto dial = [&]() -> Status {
    const uint64_t t = op_deadline();
    if (t == 0) return overdue;
    return conn->Connect(options_.coord_endpoints[p], t);
  };
  const auto call = [&]() -> Status {
    const uint64_t t = op_deadline();
    if (t == 0) return overdue;
    return conn->Call(wire, multi, t, reply);
  };

  if (!conn->connected()) {
    TARDIS_RETURN_IF_ERROR(dial());
    return call();
  }
  Status s = call();
  if (s.ok()) return s;
  // The cached connection may have died while idle (daemon restart):
  // one re-dial before giving up.
  TARDIS_RETURN_IF_ERROR(dial());
  return call();
}

std::string Router::ForwardLine(uint32_t partition, const std::string& line,
                                bool multi) {
  std::string reply;
  Status s = CallPartition(partition, line, multi, &reply);
  if (!s.ok()) return "ERR partition " + std::to_string(partition) + " " +
                       s.ToString();
  return reply;
}

std::string Router::HandleMultiPut(const std::vector<WriteOp>& writes,
                                   const SessionHeader& session) {
  // Group the write set by owning partition, preserving first-seen order.
  std::vector<uint32_t> partition_ids;
  std::vector<std::vector<WriteOp>> by_partition;
  for (const WriteOp& w : writes) {
    const uint32_t p = map_.PartitionForKey(w.key);
    size_t slot = partition_ids.size();
    for (size_t i = 0; i < partition_ids.size(); i++) {
      if (partition_ids[i] == p) {
        slot = i;
        break;
      }
    }
    if (slot == partition_ids.size()) {
      partition_ids.push_back(p);
      by_partition.emplace_back();
    }
    by_partition[slot].push_back(w);
  }

  if (partition_ids.size() == 1) {
    // Fast path: one partition, one ordinary local transaction there,
    // through the daemon's session front door like a forwarded put.
    requests_fast_->Increment();
    std::string line = session.session_id == 0
                           ? "mput"
                           : FormatSessionHeader(session) + " mput";
    for (const WriteOp& w : by_partition[0]) {
      line += " " + w.key + " " + w.value;
    }
    return ForwardLine(partition_ids[0], line);
  }
  requests_2pc_->Increment();
  return CommitAcrossPartitions(partition_ids, by_partition, session);
}

std::string Router::CommitAcrossPartitions(
    const std::vector<uint32_t>& partition_ids,
    const std::vector<std::vector<WriteOp>>& by_partition,
    const SessionHeader& session) {
  // A sessioned mput derives its txn id from the client request identity:
  // a retry re-runs 2PC under the SAME id, so participants that already
  // prepared or decided re-ack idempotently and the retry converges on
  // the original outcome instead of committing a second transaction.
  const uint64_t txn_id =
      session.session_id != 0
          ? DeriveSessionTxnId(session.session_id, session.seq,
                               session.attempt)
          : next_txn_id_++;
  const uint64_t deadline_ms = NowMillis() + options_.txn_deadline_ms;

  std::vector<std::string> endpoints;
  for (uint32_t p : partition_ids) {
    endpoints.push_back(options_.coord_endpoints[p]);
  }

  // Phase 1: prepare every participant, under the end-to-end deadline.
  // Any failure, abort vote, or blown deadline aborts the transaction
  // everywhere. The deadline must hold strictly below the participants'
  // resolve_grace_ms: a participant that prepared early in a slow phase 1
  // starts presuming abort after its grace period, and collecting its
  // vote after that point would commit a transaction it already buried.
  std::vector<uint32_t> prepared;
  Status failure;
  for (size_t i = 0; i < partition_ids.size() && failure.ok(); i++) {
    if (NowMillis() >= deadline_ms) {
      failure = Status::Aborted("prepare phase exceeded txn deadline");
      break;
    }
    ReplMessage prep;
    prep.txn_id = txn_id;
    prep.endpoints = endpoints;
    prep.session_id = session.session_id;
    prep.session_seq = session.seq;
    for (const WriteOp& w : by_partition[i]) {
      prep.commit.writes.emplace_back(
          w.key, std::make_shared<const std::string>(w.value));
    }
    prepares_->Increment();
    std::string reply;
    Status s;
    {
      obs::StageTimer timer(prepare_rtt_us_, "prepare_rtt");
      s = CallPartition(partition_ids[i], FormatPrepare(prep), false, &reply,
                        deadline_ms);
    }
    // Any reply but a commit vote — an abort vote or any ERR, such as a
    // shed or expired request — aborts the transaction.
    TwoPhaseReply vote;
    if (!s.ok()) {
      failure = s;
    } else if (!ParseTwoPhaseReply(reply, &vote).ok() ||
               vote.decision != TwoPhaseDecision::kCommit) {
      failure = Status::Aborted("partition " +
                                std::to_string(partition_ids[i]) +
                                " voted abort: " + reply);
    } else {
      prepared.push_back(partition_ids[i]);
    }
  }

  if (!failure.ok()) {
    // Abort everything we prepared; participants we cannot reach will
    // presume abort on their own after the grace period.
    const std::string abort_line =
        FormatDecide(txn_id, TwoPhaseDecision::kAbort);
    for (uint32_t p : prepared) {
      std::string reply;
      (void)CallPartition(p, abort_line, false, &reply);
    }
    return "ERR 2PC abort txn " + std::to_string(txn_id) + ": " +
           failure.ToString();
  }

  // All votes in: the transaction is committed the moment we start
  // delivering decides (any participant that receives one will propagate
  // the outcome to the others through cooperative termination).
  TARDIS_FAULT_HIT("twopc.router.before_decide");
  if (decide_delay_ms_ > 0) {
    // Test hook: hold the decision window open so the grid e2e can kill
    // the router here or land a conflicting local commit.
    std::this_thread::sleep_for(std::chrono::milliseconds(decide_delay_ms_));
  }

  bool any_forked = false;
  size_t delivered = 0;
  const std::string commit_line =
      FormatDecide(txn_id, TwoPhaseDecision::kCommit);
  for (uint32_t p : partition_ids) {
    // Retried until the txn deadline: a lost connection or a refused
    // request (ERR BUSY, ERR DEADLINE, ...) must not strand the decision.
    TwoPhaseReply ack;
    Status s;
    do {
      std::string reply;
      s = CallPartition(p, commit_line, false, &reply);
      if (s.ok()) s = ParseTwoPhaseReply(reply, &ack);
      if (!s.ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    } while (!s.ok() && NowMillis() < deadline_ms);
    // A decide-commit only counts as delivered when the participant
    // acked *commit*. An ack carrying abort means it already presumed
    // abort and buried the transaction — re-acking its recorded decision
    // — and treating that as success would report a commit the
    // participant will never apply.
    if (s.ok() && ack.decision == TwoPhaseDecision::kCommit) {
      delivered++;
      if (ack.forked) {
        any_forked = true;
        forked_commits_->Increment();
      }
    } else if (s.ok()) {
      TARDIS_WARN(
          "router: partition %u answered decide-commit txn %llu with %s; "
          "treating as undelivered",
          p, static_cast<unsigned long long>(txn_id),
          TwoPhaseDecisionName(ack.decision));
    } else {
      TARDIS_WARN(
          "router: decide commit txn %llu undelivered to partition %u "
          "(%s); peers will resolve it",
          static_cast<unsigned long long>(txn_id), p, s.ToString().c_str());
    }
  }
  if (delivered == 0) {
    // No participant holds the commit decision, so cooperative
    // termination may legitimately resolve this transaction to abort
    // (presumed abort needs every peer in doubt — true here). Claiming
    // success would ack a write that can vanish.
    return "ERR 2PC txn " + std::to_string(txn_id) +
           " in doubt: decision delivered to no participant";
  }
  std::string reply = "OK TXN " + std::to_string(txn_id);
  if (any_forked) reply += " FORKED";
  if (delivered < partition_ids.size()) {
    reply += " INDOUBT " + std::to_string(partition_ids.size() - delivered);
  }
  return reply;
}

std::string Router::AggregateHealth() {
  // One block per partition, every line prefixed "P<i> ", inner ENDs
  // dropped; unreachable partitions report down=1 instead of failing the
  // whole command.
  std::string out = "ROUTER partitions=" +
                    std::to_string(map_.partition_count()) + "\n";
  for (uint32_t p = 0; p < map_.partition_count(); p++) {
    const std::string reply = ForwardLine(p, "health", true);
    if (reply.compare(0, 4, "ERR ") == 0) {
      out += "P" + std::to_string(p) + " down=1 " + reply + "\n";
      continue;
    }
    std::stringstream ss(reply);
    std::string line;
    while (std::getline(ss, line)) {
      if (line == "END" || line.empty()) continue;
      out += "P" + std::to_string(p) + " " + line + "\n";
    }
  }
  return out + "END";
}

std::string Router::HandleTraceCommand(const std::string& sub) {
  // Cluster-wide tracing switch: flip the router's own tracer and fan the
  // same command out to every partition daemon, one status line each.
  if (sub == "start") {
    obs::Tracer::Get().Enable();
  } else {
    obs::Tracer::Get().Disable();
  }
  std::string out = "ROUTER OK\n";
  for (uint32_t p = 0; p < map_.partition_count(); p++) {
    out += "P" + std::to_string(p) + " " + ForwardLine(p, "trace " + sub) +
           "\n";
  }
  return out + "END";
}

std::string Router::CollectClusterTraces() {
  // One Chrome trace for the whole grid: every partition's ring dump plus
  // the router's own, stitched textually (each document carries its real
  // OS pid and a process_name metadata record, and all share the
  // machine's monotonic-clock origin, so events pass through verbatim).
  std::vector<std::string> docs;
  for (uint32_t p = 0; p < map_.partition_count(); p++) {
    const std::string reply = ForwardLine(p, "trace json", true);
    if (reply.compare(0, 4, "ERR ") == 0) {
      TARDIS_WARN("router: trace collect: partition %u: %s", p,
                  reply.c_str());
      continue;  // stitch what is reachable rather than failing the dump
    }
    docs.push_back(Terminated(reply));
  }
  docs.push_back(obs::Tracer::Get().DumpChromeTrace());
  return obs::StitchChromeTraces(docs) + "END";
}

std::string Router::ClusterMetrics() {
  // Cluster-wide telemetry: every partition's Prometheus exposition plus
  // the router's own, merged into one (identical series summed, quantile
  // summaries dropped in favour of the mergeable _bucket series).
  std::vector<std::string> expositions;
  for (uint32_t p = 0; p < map_.partition_count(); p++) {
    const std::string reply = ForwardLine(p, "metrics prom", true);
    if (reply.compare(0, 4, "ERR ") == 0) {
      TARDIS_WARN("router: metrics cluster: partition %u: %s", p,
                  reply.c_str());
      continue;
    }
    expositions.push_back(Terminated(reply));
  }
  expositions.push_back(obs::RenderPrometheus(registry_->Collect()));
  std::string body = obs::MergePrometheus(expositions);
  if (!body.empty() && body.back() != '\n') body.push_back('\n');
  return body + "END";
}

void Router::BindServingMetrics(server::LineServer* server) {
  server->BindMetrics(
      registry_, "tardis_router", {},
      registry_->RegisterHistogram(
          "tardis_router_queue_wait_us",
          "Router client requests' wait for the worker, microseconds"));
}

std::string Router::Handle(const std::string& line, bool* close_conn) {
  *close_conn = false;
  // A client trace header (already bound by the server) wins; otherwise
  // 1-in-N self-sampling starts a fresh trace at the cluster's front
  // door. Either way the context is bound for the whole dispatch, so
  // every span this thread records — and every line CallPartition sends
  // a partition — carries the same trace id across the grid.
  std::string cmd_line = line;
  obs::TraceContext ctx = obs::CurrentTraceContext();
  if (!ctx.active() && sample_every_ > 0 && obs::Tracer::Get().enabled() &&
      ++sample_counter_ % sample_every_ == 0) {
    ctx.trace_id = obs::NewTraceId();
    ctx.sampled = true;
  }
  obs::TraceContextScope bind(ctx);
  TARDIS_TRACE_SPAN("router", "request");
  // The session header rides behind the trace header. Unlike the trace
  // header, a corrupt one is rejected: silently stripping it would turn
  // a dedupable write into a blind one (DESIGN.md §13).
  SessionHeader session;
  if (StripSessionHeader(&cmd_line, &session) ==
      SessionHeaderStatus::kMalformed) {
    header_rejected_->Increment();
    return "ERR HEADER malformed or oversized session header; retry with "
           "a valid *S token";
  }
  return Dispatch(cmd_line, close_conn, session);
}

std::string Router::Dispatch(const std::string& line, bool* close_conn,
                             const SessionHeader& session) {
  std::stringstream ss(line);
  std::string cmd;
  ss >> cmd;

  if (cmd == "ping") return "PONG";
  if (cmd == "quit") {
    *close_conn = true;
    return "BYE";
  }
  if (cmd == "partition") {
    std::string key;
    ss >> key;
    if (key.empty()) return "ERR usage: partition <key>";
    return "PARTITION " + std::to_string(map_.PartitionForKey(key));
  }
  if (cmd == "get" || cmd == "put") {
    std::string key;
    ss >> key;
    if (key.empty()) return "ERR usage: " + cmd + " <key> ...";
    requests_fast_->Increment();
    // Keep the session header on the forwarded line: the owning daemon
    // runs the dedup/floor checks and prefixes its floor token.
    const std::string forwarded =
        session.session_id == 0 ? line
                                : FormatSessionHeader(session) + " " + line;
    return ForwardLine(map_.PartitionForKey(key), forwarded);
  }
  if (cmd == "mput") {
    std::vector<WriteOp> writes;
    WriteOp w;
    while (ss >> w.key >> w.value) writes.push_back(w);
    if (writes.empty()) return "ERR usage: mput <key> <value> [...]";
    return HandleMultiPut(writes, session);
  }
  if (cmd == "merge" || cmd == "sync") {
    // Partition-local maintenance, fanned out everywhere.
    requests_fast_->Increment();
    std::string out;
    for (uint32_t p = 0; p < map_.partition_count(); p++) {
      out += "P" + std::to_string(p) + " " + ForwardLine(p, line) + "\n";
    }
    return out + "END";
  }
  if (cmd == "health") return AggregateHealth();
  if (cmd == "metrics" || cmd == "stats") {
    std::string format = cmd == "stats" ? "table" : "prom";
    ss >> format;
    if (format == "cluster") return ClusterMetrics();
    const std::vector<obs::Sample> samples = registry_->Collect();
    std::string body = format == "table" ? obs::RenderTable(samples)
                                         : obs::RenderPrometheus(samples);
    if (!body.empty() && body.back() != '\n') body.push_back('\n');
    return body + "END";
  }
  if (cmd == "trace") {
    std::string sub;
    ss >> sub;
    if (sub == "sample") {
      uint64_t n = 0;
      if (!(ss >> n)) return "ERR usage: trace sample <n>";
      sample_every_ = n;
      sample_counter_ = 0;
      return "OK";
    }
    if (sub == "json") {
      return obs::Tracer::Get().DumpChromeTrace() + "END";
    }
    if (sub == "collect") return CollectClusterTraces();
    if (sub == "start" || sub == "stop") return HandleTraceCommand(sub);
    return "ERR usage: trace start|stop|sample <n>|json|collect";
  }
  if (cmd == "2pc_delay") {
    int ms = 0;
    if (!(ss >> ms) || ms < 0 || ms > 60'000) return "ERR usage: 2pc_delay <ms>";
    decide_delay_ms_ = static_cast<uint64_t>(ms);
    return "OK";
  }
  return "ERR unknown command '" + cmd + "'";
}

}  // namespace cluster
}  // namespace tardis
