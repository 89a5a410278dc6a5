// TardisStore: a single TARDiS site (Figure 2) — storage layer, consistency
// layer, garbage collector unit, and the hooks the replicator service
// attaches to.
//
// Typical use:
//
//   TardisOptions options;
//   auto store = TardisStore::Open(options);
//   auto session = (*store)->CreateSession();
//   auto txn = (*store)->Begin(session.get());          // Ancestor begin
//   (*txn)->Put("k", "v");
//   (*txn)->Get("k", &value);
//   (*txn)->Commit(SerializabilityEnd());
//
// Conflicting commits fork the State DAG instead of blocking or aborting
// (branch-on-conflict); merge transactions reconcile the branches:
//
//   auto merge = (*store)->BeginMerge(session.get());
//   auto forks = (*merge)->FindForkPoints((*merge)->parents());
//   ... resolve ...
//   (*merge)->Commit();

#ifndef TARDIS_CORE_TARDIS_STORE_H_
#define TARDIS_CORE_TARDIS_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/commit_log.h"
#include "core/constraints.h"
#include "core/gc.h"
#include "core/key_version_map.h"
#include "core/options.h"
#include "core/session.h"
#include "core/state_dag.h"
#include "core/transaction.h"
#include "obs/metrics.h"
#include "storage/record_store.h"
#include "util/status.h"

namespace tardis {

/// Per-client session state: tracks the last committed state for the
/// Parent/Ancestor begin constraints and read-my-writes. One session per
/// client thread; not thread-safe.
class ClientSession {
 public:
  StatePtr last_commit() const { return last_commit_; }

 private:
  friend class TardisStore;
  friend class Transaction;
  StatePtr last_commit_;
};

/// A committed transaction as shipped to other sites by the replicator.
struct CommitRecord {
  CommitRecord() = default;
  // Noexcept-movable so replication queues and transports relocate
  // records without copying the write set.
  CommitRecord(CommitRecord&&) noexcept = default;
  CommitRecord& operator=(CommitRecord&&) noexcept = default;
  CommitRecord(const CommitRecord&) = default;
  CommitRecord& operator=(const CommitRecord&) = default;

  GlobalStateId guid;
  std::vector<GlobalStateId> parent_guids;
  bool is_merge = false;
  std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>
      writes;
  /// Exactly-once session tag (DESIGN.md §13); replicated so every site's
  /// dedup table learns about tagged commits from other sites. 0 = none.
  uint64_t session_id = 0;
  uint64_t session_seq = 0;
};

class TardisStore {
 public:
  static StatusOr<std::unique_ptr<TardisStore>> Open(
      const TardisOptions& options);
  ~TardisStore();

  TardisStore(const TardisStore&) = delete;
  TardisStore& operator=(const TardisStore&) = delete;

  std::unique_ptr<ClientSession> CreateSession();

  /// Starts a single-mode transaction. Default begin constraint:
  /// Ancestor (§5.1).
  StatusOr<TxnPtr> Begin(ClientSession* session,
                         BeginConstraintPtr begin = nullptr);

  /// Starts a merge transaction whose read states are all current branch
  /// tips satisfying `begin` (default: Any). `max_parents` caps how many
  /// branches one merge reconciles (0 = unlimited).
  StatusOr<TxnPtr> BeginMerge(ClientSession* session,
                              BeginConstraintPtr begin = nullptr,
                              size_t max_parents = 0);

  // ---- garbage collection ------------------------------------------------
  /// Places a ceiling at the session's last committed state (§6.3).
  void PlaceCeiling(ClientSession* session);
  GcStats RunGarbageCollection() { return gc_->RunOnce(); }
  void StartGcThread(uint64_t interval_ms) {
    gc_->StartBackground(interval_ms);
  }
  void StopGcThread() { gc_->StopBackground(); }

  // ---- replication hooks (used by replication::Replicator) ----------------
  /// Invoked after every local commit, outside the commit lock.
  void SetCommitCallback(std::function<void(const CommitRecord&)> cb) {
    commit_cb_ = std::move(cb);
  }
  /// Applies a transaction committed at another site as a child of its
  /// original parent states (the StateID constraint of §6.4). Idempotent.
  /// Returns Status::Unavailable if a parent has not been received yet.
  Status ApplyRemote(const CommitRecord& record);
  /// The value state `sid` itself wrote for `key`: its own entry in the
  /// version map, loaded from the record store after recovery. NotFound if
  /// the state wrote no such version (or GC pruned it).
  StatusOr<std::shared_ptr<const std::string>> ReadOwnVersion(
      const Slice& key, StateId sid);

  // ---- durability ---------------------------------------------------------
  /// Flushes record store and commit log to stable storage. Fails while
  /// the store is durability-degraded (see commit_log_degraded()).
  Status Flush();
  /// Non-blocking-style checkpoint (§6.5): persists the DAG snapshot and
  /// truncates the commit log. Also refused while degraded: a checkpoint
  /// taken over missing records would replay as committed state whose
  /// values are gone (checkpoint replay skips the persistence check).
  Status Checkpoint();
  /// True once a commit-log append or record persist has failed: commits
  /// keep succeeding in memory (availability over durability), but the
  /// on-disk log no longer covers every committed state. Cleared only by
  /// reopening the store (crash-restart recovery re-derives truth from
  /// disk).
  bool commit_log_degraded() const {
    return commit_log_degraded_.load(std::memory_order_relaxed);
  }

  // ---- introspection -------------------------------------------------------
  StateDag* dag() { return &dag_; }
  KeyVersionMap* kvmap() { return &kvmap_; }
  GarbageCollector* gc() { return gc_.get(); }
  RecordStore* record_store() { return record_store_.get(); }
  /// The record backend of this store ("mem", "btree", "trie").
  const char* backend_name() const {
    return RecordBackendName(options_.backend);
  }
  const TardisOptions& options() const { return options_; }
  /// The registry holding every metric of this site (txn counters, DAG
  /// gauges, GC counters; the replicator and transport register here too
  /// when they share the registry).
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  uint32_t site_id() const { return dag_.site_id(); }
  /// The per-site exactly-once dedup table (DESIGN.md §13). Fed by every
  /// tagged commit path — local, remote, recovery — so request handlers
  /// only ever need Lookup.
  SessionDedup* session_dedup() { return &session_dedup_; }

 private:
  friend class Transaction;

  explicit TardisStore(const TardisOptions& options);

  Status Recover();
  Status RecoverEntry(const CommitLogEntry& entry, bool check_persistence,
                      bool* stop);
  /// Every non-root state as a commit-log entry, id order (used by
  /// Checkpoint and by the post-recovery log rewrite).
  std::vector<CommitLogEntry> SnapshotDag();

  /// Transaction plumbing (called by Transaction).
  Status TxnGet(Transaction* t, const Slice& key, std::string* value);
  Status TxnGetForId(Transaction* t, const Slice& key, StateId sid,
                     std::string* value);
  Status CommitTxn(Transaction* t, const EndConstraintPtr& ec);
  void AbortTxn(Transaction* t);

  void RegisterMetrics();

  Status LoadValue(const Slice& key, const VersionEntry& entry,
                   std::string* value);
  /// Writes a committed value to the record store of a durable store (a
  /// failure degrades durability); no-op for an in-memory store.
  void PersistRecord(const std::string& key, StateId sid,
                     const std::string& value);

  TardisOptions options_;
  /// Lock-free registry metrics; the commit hot path increments counters
  /// without any mutex. Declared before everything that registers in it,
  /// so it is destroyed after them.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  StateDag dag_;
  KeyVersionMap kvmap_;
  std::unique_ptr<RecordStore> record_store_;
  std::unique_ptr<CommitLog> commit_log_;
  std::unique_ptr<GarbageCollector> gc_;
  SessionDedup session_dedup_;
  std::function<void(const CommitRecord&)> commit_cb_;

  obs::Counter* commits_total_ = nullptr;
  obs::Counter* aborts_total_ = nullptr;
  obs::Counter* read_only_commits_total_ = nullptr;
  obs::Counter* remote_applied_total_ = nullptr;
  obs::Counter* forks_total_ = nullptr;
  obs::Counter* merges_total_ = nullptr;
  obs::HistogramMetric* commit_latency_us_ = nullptr;
  obs::HistogramMetric* merge_latency_us_ = nullptr;
  obs::HistogramMetric* stage_commit_select_us_ = nullptr;
  obs::HistogramMetric* stage_wal_fsync_us_ = nullptr;

  std::atomic<bool> checkpoint_running_{false};
  std::atomic<bool> commit_log_degraded_{false};

  BeginConstraintPtr default_begin_;
  EndConstraintPtr default_end_;
};

}  // namespace tardis

#endif  // TARDIS_CORE_TARDIS_STORE_H_
