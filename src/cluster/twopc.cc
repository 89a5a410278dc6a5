#include "cluster/twopc.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "core/constraints.h"
#include "fault/fault_points.h"
#include "net/wire.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/logging.h"

namespace tardis {
namespace cluster {

TwoPhaseParticipant::TwoPhaseParticipant(TardisStore* store,
                                         TwoPhaseOptions options)
    : store_(store),
      options_(std::move(options)),
      log_path_(options_.dir.empty() ? "" : options_.dir + "/twopc.log") {
  obs::MetricsRegistry* registry = store_->metrics();
  prepares_ = registry->RegisterCounter(
      "tardis_2pc_prepares", "Cross-partition prepares handled",
      {{"role", "participant"}});
  forked_commits_ = registry->RegisterCounter(
      "tardis_2pc_forked_commits",
      "2PC decide-commits that forked the DAG instead of aborting",
      {{"role", "participant"}});
  registry->RegisterCallbackGauge(
      "tardis_2pc_in_doubt", "Prepared transactions awaiting a decision",
      [this] {
        return static_cast<double>(in_doubt_count());
      },
      {}, this);
  stage_wal_fsync_us_ = obs::RegisterStageHistogram(registry, "wal_fsync");
  stage_decide_apply_us_ =
      obs::RegisterStageHistogram(registry, "decide_apply");
}

TwoPhaseParticipant::~TwoPhaseParticipant() {
  {
    std::lock_guard<std::mutex> guard(resolver_mu_);
    resolver_stop_ = true;
  }
  resolver_cv_.notify_all();
  if (resolver_.joinable()) resolver_.join();
  store_->metrics()->DropCallbacks(this);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, p] : pending_) {
    if (p.staged) p.staged->Abort();
  }
  if (log_fd_ >= 0) ::close(log_fd_);
}

Status TwoPhaseParticipant::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_path_.empty()) return Status::OK();

  // Replay whatever log survived the last run.
  std::string contents;
  {
    FILE* f = fopen(log_path_.c_str(), "rb");
    if (f != nullptr) {
      char buf[8192];
      size_t n;
      while ((n = fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
      fclose(f);
    }
  }
  Slice rest(contents);
  const uint64_t now = NowMillis();
  size_t torn = 0;
  while (!rest.empty()) {
    ReplMessage msg;
    size_t consumed = 0;
    Status s = DecodeFrame(rest, &msg, &consumed);
    if (!s.ok() || consumed == 0) {
      // Corrupt or incomplete tail: the crash interrupted an append.
      // Everything acked is in the complete prefix; drop the tail.
      torn = rest.size();
      break;
    }
    rest.remove_prefix(consumed);
    switch (msg.type) {
      case ReplMessage::Type::kPrepare: {
        Pending p;
        p.prepare = std::move(msg);
        p.prepared_at_ms = now;  // restart the grace clock
        pending_[p.prepare.txn_id] = std::move(p);
        break;
      }
      case ReplMessage::Type::kDecide:
        pending_.erase(msg.txn_id);
        decided_[msg.txn_id] = {static_cast<TwoPhaseDecision>(msg.decision),
                                now};
        break;
      default:
        return Status::Corruption("unexpected frame in twopc.log");
    }
  }
  if (torn > 0) {
    // Truncate the torn bytes away, not just skip them in memory: with
    // O_APPEND the next record would land *after* the corrupt frame, and
    // the following recovery would stop there — silently dropping every
    // acked record written since.
    TARDIS_WARN("twopc: truncating %zu torn trailing bytes of %s", torn,
                log_path_.c_str());
    if (::truncate(log_path_.c_str(),
                   static_cast<off_t>(contents.size() - torn)) != 0) {
      return Status::IOError("truncate " + log_path_ + ": " +
                             strerror(errno));
    }
  }
  if (!pending_.empty()) {
    TARDIS_INFO("twopc: recovered %zu in-doubt transaction(s)",
                pending_.size());
  }

  log_fd_ = open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
  if (log_fd_ < 0) {
    return Status::IOError("open " + log_path_ + ": " + strerror(errno));
  }
  return Status::OK();
}

Status TwoPhaseParticipant::AppendLog(const ReplMessage& msg) {
  if (log_fd_ < 0) return Status::OK();  // in-memory participant
  obs::StageTimer timer(stage_wal_fsync_us_, "wal_fsync");
  std::string frame;
  EncodeFrame(msg, &frame);
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::write(log_fd_, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("twopc.log write: " +
                             std::string(strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  if (fsync(log_fd_) != 0) {
    return Status::IOError("twopc.log fsync: " + std::string(strerror(errno)));
  }
  return Status::OK();
}

Status TwoPhaseParticipant::HandlePrepare(const ReplMessage& msg,
                                          TwoPhaseReply* reply) {
  std::lock_guard<std::mutex> lock(mu_);
  prepares_->Increment();
  *reply = TwoPhaseReply{msg.txn_id, TwoPhaseDecision::kCommit, false};

  // Duplicate prepare (router retry): re-ack the standing vote.
  if (pending_.count(msg.txn_id) != 0) return Status::OK();
  auto decided = decided_.find(msg.txn_id);
  if (decided != decided_.end()) {
    // Already decided (late retry after the decide): vote matches fate.
    reply->decision = decided->second.decision;
    return Status::OK();
  }

  // Persist before staging: an acked prepare must survive a crash.
  Status s = [&] {
    TARDIS_FAULT_POINT("twopc.prepare.persist");
    return AppendLog(msg);
  }();
  if (!s.ok()) {
    TARDIS_WARN("twopc: prepare %llu persist failed, voting abort: %s",
                static_cast<unsigned long long>(msg.txn_id),
                s.ToString().c_str());
    decided_[msg.txn_id] = {TwoPhaseDecision::kAbort, NowMillis()};
    reply->decision = TwoPhaseDecision::kAbort;
    return Status::OK();
  }

  // Stage the write set as an open local transaction. Staging failures
  // after a persisted prepare are fine: the decide path falls back to a
  // fresh transaction, exactly like post-crash recovery.
  Pending p;
  p.prepare = msg;
  p.prepared_at_ms = NowMillis();
  p.session = store_->CreateSession();
  auto txn = store_->Begin(p.session.get());
  if (txn.ok()) {
    // A sessioned prepare commits tagged, so the resulting state feeds
    // every site's exactly-once dedup table (DESIGN.md §13).
    (*txn)->SetSessionTag(msg.session_id, msg.session_seq);
    bool staged = true;
    for (const auto& [key, value] : msg.commit.writes) {
      const Slice v = value ? Slice(*value) : Slice();
      if (!(*txn)->Put(key, v).ok()) {
        staged = false;
        break;
      }
    }
    if (staged) {
      p.staged = std::move(*txn);
    } else {
      (*txn)->Abort();
    }
  }
  pending_[msg.txn_id] = std::move(p);
  return Status::OK();
}

Status TwoPhaseParticipant::ApplyDecisionLocked(uint64_t txn_id, Pending* p,
                                                TwoPhaseDecision decision,
                                                bool* forked) {
  obs::StageTimer stage(stage_decide_apply_us_, "decide_apply");
  *forked = false;
  if (decision == TwoPhaseDecision::kCommit) {
    TARDIS_FAULT_POINT("twopc.decide.apply");
    // First-committer-wins on the write sets: a commit that landed on our
    // keys since prepare is a real conflict, and branch-on-conflict means
    // the decide-commit FORKS the DAG at the pre-conflict state instead
    // of aborting (SI's StepOk fails, its FinalOk never does). The
    // default Serializability constraint would silently ripple a
    // write-only transaction past the conflicting commit.
    Status s;
    if (p->staged) {
      s = p->staged->Commit(SnapshotIsolationEnd());
      *forked = p->staged->forked();
      p->staged.reset();
    } else {
      // Crash recovery (or staging failed at prepare time): re-apply the
      // logged write set through a fresh transaction.
      auto session = store_->CreateSession();
      auto txn = store_->Begin(session.get());
      if (!txn.ok()) {
        s = txn.status();
      } else {
        // The logged prepare carries the session tag, so even a crash-
        // recovered decide-commit lands tagged and dedupable.
        (*txn)->SetSessionTag(p->prepare.session_id,
                              p->prepare.session_seq);
        s = Status::OK();
        for (const auto& [key, value] : p->prepare.commit.writes) {
          const Slice v = value ? Slice(*value) : Slice();
          s = (*txn)->Put(key, v);
          if (!s.ok()) break;
        }
        if (s.ok()) {
          s = (*txn)->Commit(SnapshotIsolationEnd());
          *forked = (*txn)->forked();
        } else {
          (*txn)->Abort();
        }
      }
    }
    if (!s.ok()) {
      // Leave the transaction in doubt; the router (or the resolver) will
      // retry the decide. Acking a commit we failed to apply would lose
      // the write.
      return s;
    }
    if (*forked) forked_commits_->Increment();
  } else {
    if (p->staged) {
      p->staged->Abort();
      p->staged.reset();
    }
  }

  // Apply-THEN-log: a crash between the two re-applies the decide on
  // recovery (idempotent); the reverse order could ack a commit whose
  // writes never landed.
  Status s = RecordDecisionLocked(txn_id, decision);
  if (!s.ok()) {
    TARDIS_WARN("twopc: decide %llu logged only in memory: %s",
                static_cast<unsigned long long>(txn_id),
                s.ToString().c_str());
    // The apply landed; keep serving the decision from memory. A crash
    // now re-enters in-doubt and cooperative termination re-resolves it.
    decided_[txn_id] = {decision, NowMillis()};
  }
  pending_.erase(txn_id);
  return Status::OK();
}

Status TwoPhaseParticipant::RecordDecisionLocked(uint64_t txn_id,
                                                 TwoPhaseDecision decision) {
  ReplMessage record;
  record.type = ReplMessage::Type::kDecide;
  record.txn_id = txn_id;
  record.decision = static_cast<uint8_t>(decision);
  Status s = AppendLog(record);
  if (!s.ok()) return s;
  decided_[txn_id] = {decision, NowMillis()};
  return Status::OK();
}

Status TwoPhaseParticipant::HandleDecide(uint64_t txn_id,
                                         TwoPhaseDecision decision,
                                         TwoPhaseReply* reply) {
  if (decision != TwoPhaseDecision::kCommit &&
      decision != TwoPhaseDecision::kAbort) {
    return Status::InvalidArgument("decide carries no decision");
  }
  std::lock_guard<std::mutex> lock(mu_);
  *reply = TwoPhaseReply{txn_id, decision, false};

  auto decided = decided_.find(txn_id);
  if (decided != decided_.end()) {
    // Duplicate decide: idempotent re-ack.
    reply->decision = decided->second.decision;
    return Status::OK();
  }
  auto it = pending_.find(txn_id);
  if (it == pending_.end()) {
    // Never prepared here (or already presumed aborted and forgotten).
    // Answer abort for aborts; a commit for an unknown txn is a protocol
    // violation worth surfacing.
    if (decision == TwoPhaseDecision::kAbort) return Status::OK();
    return Status::InvalidArgument("decide-commit for unprepared txn");
  }
  return ApplyDecisionLocked(txn_id, &it->second, decision, &reply->forked);
}

TwoPhaseReply TwoPhaseParticipant::HandleTxnStatus(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  TwoPhaseReply reply{txn_id, TwoPhaseDecision::kUnknown, false};
  auto decided = decided_.find(txn_id);
  if (decided != decided_.end()) {
    reply.decision = decided->second.decision;
  } else if (pending_.count(txn_id) == 0) {
    // Presumed abort: no trace of it. The querying peer will act on this
    // answer (abort its prepared transaction), so the presumption must
    // be binding BEFORE it leaves this process — a router whose prepare
    // arrives here afterwards must be voted abort, not commit, or the
    // peer's abort and our commit split the transaction. If we cannot
    // persist the presumption, answer kUnknown instead: the peer simply
    // stays in doubt and retries.
    Status s = RecordDecisionLocked(txn_id, TwoPhaseDecision::kAbort);
    if (s.ok()) {
      reply.decision = TwoPhaseDecision::kAbort;
    } else {
      TARDIS_WARN("twopc: cannot persist presumed abort for txn %llu: %s",
                  static_cast<unsigned long long>(txn_id),
                  s.ToString().c_str());
    }
  }
  // else: prepared and undecided here too — kUnknown.
  return reply;
}

std::string TwoPhaseParticipant::Serve(const std::string& line) {
  TwoPhaseRequest req;
  Status s = ParseTwoPhaseRequest(line, &req);
  if (!s.ok()) return "ERR " + s.ToString();
  TwoPhaseReply reply;
  switch (req.verb) {
    case TwoPhaseRequest::Verb::kPrepare: {
      TARDIS_TRACE_SPAN("coord", "prepare");
      // The prepare record keeps the router's trace context, as the
      // frames it replaced did.
      const obs::TraceContext& ctx = obs::CurrentTraceContext();
      req.prepare.trace_id = ctx.trace_id;
      req.prepare.trace_span = ctx.span_id;
      req.prepare.trace_sampled = ctx.sampled;
      s = HandlePrepare(req.prepare, &reply);
      break;
    }
    case TwoPhaseRequest::Verb::kDecide: {
      TARDIS_TRACE_SPAN("coord", "decide");
      s = HandleDecide(req.txn_id, req.decision, &reply);
      break;
    }
    case TwoPhaseRequest::Verb::kTxnStatus:
      reply = HandleTxnStatus(req.txn_id);
      break;
  }
  if (!s.ok()) return "ERR " + s.ToString();
  return FormatTwoPhaseReply(reply);
}

void TwoPhaseParticipant::StartResolver(uint64_t interval_ms) {
  resolver_ = std::thread([this, interval_ms] {
    std::unique_lock<std::mutex> lock(resolver_mu_);
    while (!resolver_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                                  [this] { return resolver_stop_; })) {
      lock.unlock();
      ResolveInDoubt();
      lock.lock();
    }
  });
}

size_t TwoPhaseParticipant::ResolveInDoubt() {
  // Snapshot the overdue transactions, then query peers without holding
  // mu_ (query_peer does network IO; handlers must stay responsive).
  struct Overdue {
    uint64_t txn_id;
    std::vector<std::string> peers;
  };
  std::vector<Overdue> overdue;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t now = NowMillis();
    GcDecidedLocked(now);
    for (const auto& [id, p] : pending_) {
      if (now - p.prepared_at_ms < options_.resolve_grace_ms) continue;
      Overdue o;
      o.txn_id = id;
      for (const std::string& ep : p.prepare.endpoints) {
        if (ep != options_.self_endpoint) o.peers.push_back(ep);
      }
      overdue.push_back(std::move(o));
    }
  }
  if (overdue.empty() || !options_.query_peer) return 0;

  size_t resolved = 0;
  for (const Overdue& o : overdue) {
    TwoPhaseDecision outcome = TwoPhaseDecision::kUnknown;
    bool all_reachable = true;
    for (const std::string& peer : o.peers) {
      TwoPhaseDecision d = TwoPhaseDecision::kUnknown;
      Status s = options_.query_peer(peer, o.txn_id, &d);
      if (!s.ok()) {
        all_reachable = false;
        continue;
      }
      if (d == TwoPhaseDecision::kCommit || d == TwoPhaseDecision::kAbort) {
        outcome = d;
        break;  // any decided peer is authoritative
      }
    }
    if (outcome == TwoPhaseDecision::kUnknown) {
      if (!all_reachable) continue;  // stay in doubt, retry later
      // Every peer reachable and none saw a decide: the router cannot
      // have decided commit (it needs all our acks first, and a commit
      // decision reaches at least one participant before the router can
      // consider the txn done). Presume abort.
      outcome = TwoPhaseDecision::kAbort;
    }

    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(o.txn_id);
    if (it == pending_.end()) continue;  // raced with a live decide
    bool forked = false;
    if (ApplyDecisionLocked(o.txn_id, &it->second, outcome, &forked).ok()) {
      TARDIS_INFO("twopc: resolved in-doubt txn %llu -> %s%s",
                  static_cast<unsigned long long>(o.txn_id),
                  TwoPhaseDecisionName(outcome), forked ? " (forked)" : "");
      resolved++;
    }
  }
  return resolved;
}

void TwoPhaseParticipant::GcDecidedLocked(uint64_t now_ms) {
  size_t dropped = 0;
  for (auto it = decided_.begin(); it != decided_.end();) {
    if (now_ms - it->second.decided_at_ms > options_.decided_retention_ms) {
      it = decided_.erase(it);
      dropped++;
    } else {
      ++it;
    }
  }
  if (dropped == 0 || log_fd_ < 0) return;
  Status s = CompactLogLocked();
  if (!s.ok()) {
    TARDIS_WARN("twopc: log compaction failed: %s", s.ToString().c_str());
    return;
  }
  TARDIS_INFO("twopc: dropped %zu decided record(s), compacted %s", dropped,
              log_path_.c_str());
}

Status TwoPhaseParticipant::CompactLogLocked() {
  const std::string tmp_path = log_path_ + ".tmp";
  std::string image;
  for (const auto& [id, p] : pending_) EncodeFrame(p.prepare, &image);
  for (const auto& [id, d] : decided_) {
    ReplMessage record;
    record.type = ReplMessage::Type::kDecide;
    record.txn_id = id;
    record.decision = static_cast<uint8_t>(d.decision);
    EncodeFrame(record, &image);
  }

  const int tmp_fd =
      open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) {
    return Status::IOError("open " + tmp_path + ": " + strerror(errno));
  }
  size_t off = 0;
  while (off < image.size()) {
    const ssize_t n = ::write(tmp_fd, image.data() + off, image.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Status::IOError("write " + tmp_path + ": " +
                                 std::string(strerror(errno)));
      ::close(tmp_fd);
      ::unlink(tmp_path.c_str());
      return s;
    }
    off += static_cast<size_t>(n);
  }
  if (fsync(tmp_fd) != 0 ||
      rename(tmp_path.c_str(), log_path_.c_str()) != 0) {
    Status s = Status::IOError("compact " + log_path_ + ": " +
                               std::string(strerror(errno)));
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    return s;
  }
  // The old fd now points at the unlinked file; switch appends over to
  // the compacted one.
  ::close(log_fd_);
  log_fd_ = tmp_fd;
  return Status::OK();
}

size_t TwoPhaseParticipant::in_doubt_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

TwoPhaseDecision TwoPhaseParticipant::DecisionFor(uint64_t txn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = decided_.find(txn_id);
  return it == decided_.end() ? TwoPhaseDecision::kUnknown
                              : it->second.decision;
}

}  // namespace cluster
}  // namespace tardis
