// TwoPhaseParticipant: one partition's side of the cross-partition commit
// protocol (DESIGN.md §10).
//
// Classic 2PC aborts a prepared transaction whenever anything conflicts.
// TARDiS does not need to: a participant votes yes by *staging* the write
// set as an open local transaction, and on decide-commit simply commits
// it — if a concurrent local commit landed in between, branch-on-conflict
// forks the State DAG instead of aborting, and the fork is merged later
// like any other branch. The only abort votes are resource/persistence
// failures, so a prepared cross-partition transaction is never lost to a
// read-write race.
//
// Durability: every prepare and decide is appended (as a CRC32-framed
// ReplMessage, the replication wire codec) to <dir>/twopc.log and fsynced
// before it is acknowledged — except the decide *apply* happens before
// the decide record is logged. Re-applying a decide after a crash is
// benign (idempotent by txn id); a logged decide whose apply never
// happened would lose a committed write, which is not.
//
// The router and peers reach a participant through three line-protocol
// verbs on the daemon's coordination port (twopc_line.h); Serve() parses
// and answers one such line.
//
// Recovery and the stateless router: the router keeps no durable state,
// so a participant left in doubt (prepared, no decide) resolves
// cooperatively. The prepare record carries every participant's
// coordination endpoint; after `resolve_grace_ms`, ResolveInDoubt()
// queries the peers — any peer that saw decide-commit → commit, any that
// saw abort → abort, and if every peer is reachable and also in doubt,
// presume abort (safe: the router only decides commit after collecting
// *all* prepare acks, so "nobody saw a decide" implies no one committed).
// A queried peer with *no trace* of the transaction durably records the
// abort it answers with, so a prepare arriving from a slow router
// afterwards is voted abort rather than resurrecting a buried
// transaction; the router in turn bounds its whole prepare phase by
// txn_deadline_ms, kept strictly below resolve_grace_ms, so a live
// router cannot race the presumption.

#ifndef TARDIS_CLUSTER_TWOPC_H_
#define TARDIS_CLUSTER_TWOPC_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/twopc_line.h"
#include "core/tardis_store.h"
#include "obs/metrics.h"
#include "replication/message.h"
#include "util/status.h"

namespace tardis {
namespace cluster {

struct TwoPhaseOptions {
  /// Directory for twopc.log. Empty = no durability (in-memory stores /
  /// unit tests); recovery then starts empty.
  std::string dir;
  /// This participant's own coordination endpoint ("host:port"), as it
  /// appears in the prepare record's endpoint list; skipped when
  /// querying peers.
  std::string self_endpoint;
  /// How long a prepared transaction may sit undecided before
  /// ResolveInDoubt starts querying peers. Must exceed the router's 2PC
  /// deadline (see file comment).
  uint64_t resolve_grace_ms = 5000;
  /// How long a decided transaction's outcome is remembered (and kept in
  /// twopc.log). Entries older than this are garbage-collected by
  /// ResolveInDoubt and the log is compacted, so a long-lived daemon
  /// does not accumulate every transaction it ever coordinated. After
  /// collection the transaction falls back to presumed abort, so this
  /// must comfortably exceed both the router's retry window and the
  /// longest coordination-plane partition worth tolerating (a peer in
  /// doubt longer than this would adopt the presumption instead of a
  /// collected commit).
  uint64_t decided_retention_ms = 600'000;
  /// Queries one peer for its decision on txn_id. Injected so tests and
  /// the in-process chaos harness can answer without sockets; tardisd
  /// sends a `txnstatus` line to the peer's coordination port. An error
  /// return means "unreachable" (the txn stays in doubt).
  std::function<Status(const std::string& endpoint, uint64_t txn_id,
                       TwoPhaseDecision* decision)>
      query_peer;
};

class TwoPhaseParticipant {
 public:
  /// Registers the 2PC metrics on the store's registry. Call Recover()
  /// before serving traffic.
  TwoPhaseParticipant(TardisStore* store, TwoPhaseOptions options);
  ~TwoPhaseParticipant();

  TwoPhaseParticipant(const TwoPhaseParticipant&) = delete;
  TwoPhaseParticipant& operator=(const TwoPhaseParticipant&) = delete;

  /// Replays twopc.log: prepares without a matching decide become
  /// in-doubt transactions (their write sets come from the log; the
  /// staged local transaction did not survive the crash, so a later
  /// decide-commit re-applies them through a fresh transaction). A torn
  /// final record — the crash hit mid-append — is truncated away, so
  /// later appends extend a valid prefix instead of hiding behind the
  /// corrupt frame.
  Status Recover();

  /// Parses one 2PC request line (twopc_line.h), runs it under the
  /// caller's bound trace context and returns the `2PC ...` reply, or
  /// "ERR ..." for a malformed line or a failed handler.
  std::string Serve(const std::string& line);

  /// prepare: stages the write set of a kPrepare record, persists the
  /// record, votes commit; votes abort when persistence fails (fault
  /// point "twopc.prepare.persist"). Duplicate prepares re-ack the
  /// original vote.
  Status HandlePrepare(const ReplMessage& prepare, TwoPhaseReply* reply);

  /// decide: applies the decision (commit may fork — see file comment;
  /// fault point "twopc.decide.apply"), then logs it. Idempotent: a
  /// repeated decide re-acks without re-applying.
  Status HandleDecide(uint64_t txn_id, TwoPhaseDecision decision,
                      TwoPhaseReply* reply);

  /// txnstatus: this participant's view — the logged decision, kUnknown
  /// while prepared-undecided, and kAbort for transactions never seen
  /// (presumed abort). The presumption is made durable before it is
  /// answered — the querying peer acts on it, so a later prepare or
  /// decide for the same txn must see the same fate; if it cannot be
  /// persisted the answer degrades to kUnknown.
  TwoPhaseReply HandleTxnStatus(uint64_t txn_id);

  /// One cooperative-termination pass over transactions in doubt longer
  /// than resolve_grace_ms, plus garbage collection of decided entries
  /// older than decided_retention_ms (compacting twopc.log when any are
  /// dropped). Returns the number of in-doubt transactions resolved.
  /// Driven by the resolver thread (or directly by tests).
  size_t ResolveInDoubt();

  /// Starts the resolver thread: ResolveInDoubt every interval_ms, off
  /// the serving path, so a peer query waiting on an unreachable peer
  /// never delays a request. The destructor stops it. Call once, after
  /// Recover().
  void StartResolver(uint64_t interval_ms);

  size_t in_doubt_count() const;

  /// Test/introspection: this participant's decision for txn_id
  /// (kUnknown when prepared-undecided OR never seen; pair with
  /// in_doubt_count to distinguish).
  TwoPhaseDecision DecisionFor(uint64_t txn_id) const;

 private:
  struct Pending {
    ReplMessage prepare;      ///< the full prepare record (writes, peers)
    TxnPtr staged;            ///< open local txn; null after crash recovery
    std::unique_ptr<ClientSession> session;  ///< owns staged's session
    uint64_t prepared_at_ms = 0;
  };
  struct Decided {
    TwoPhaseDecision decision = TwoPhaseDecision::kUnknown;
    uint64_t decided_at_ms = 0;  ///< retention clock for GC
  };

  /// Appends one framed record to twopc.log and fsyncs. No-op without a
  /// log directory.
  Status AppendLog(const ReplMessage& msg);
  /// Durably records `decision` for txn_id and remembers it in decided_.
  /// Caller holds mu_.
  Status RecordDecisionLocked(uint64_t txn_id, TwoPhaseDecision decision);
  /// Drops decided entries older than decided_retention_ms and, when any
  /// were dropped, rewrites twopc.log to just the live pending/decided
  /// records. Caller holds mu_.
  void GcDecidedLocked(uint64_t now_ms);
  /// Rewrites twopc.log from pending_ + decided_ (write temp, fsync,
  /// rename, reopen). Caller holds mu_.
  Status CompactLogLocked();
  /// Commits or aborts a pending transaction, logs the decide, moves it
  /// to decided_. Caller holds mu_. Sets *forked when the commit created
  /// a new branch.
  Status ApplyDecisionLocked(uint64_t txn_id, Pending* p,
                             TwoPhaseDecision decision, bool* forked);

  TardisStore* const store_;
  const TwoPhaseOptions options_;
  const std::string log_path_;

  mutable std::mutex mu_;
  std::map<uint64_t, Pending> pending_;
  std::map<uint64_t, Decided> decided_;
  int log_fd_ = -1;

  std::mutex resolver_mu_;
  std::condition_variable resolver_cv_;
  bool resolver_stop_ = false;  // guarded by resolver_mu_
  std::thread resolver_;

  obs::Counter* prepares_ = nullptr;
  obs::Counter* forked_commits_ = nullptr;
  obs::HistogramMetric* stage_wal_fsync_us_ = nullptr;
  obs::HistogramMetric* stage_decide_apply_us_ = nullptr;
};

}  // namespace cluster
}  // namespace tardis

#endif  // TARDIS_CLUSTER_TWOPC_H_
