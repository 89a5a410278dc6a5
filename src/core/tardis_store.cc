#include "core/tardis_store.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/record_codec.h"
#include "fault/fault_points.h"
#include "fault/fault_registry.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "storage/btree_record_store.h"
#include "storage/cowtrie/trie_record_store.h"
#include "storage/memstore.h"
#include "util/clock.h"
#include "util/logging.h"

namespace tardis {

namespace {
constexpr const char* kCommitLogFile = "commit.log";
constexpr const char* kCheckpointFile = "checkpoint.log";
constexpr const char* kCheckpointTmpFile = "checkpoint.tmp";
constexpr const char* kRecordsFile = "records.db";

/// Begin constraints run Fig. 7 with the session's last commit as the
/// writer. The collector prunes closed forks from the paths of live states
/// and version owners only (DESIGN.md §4b), so for one read-state search a
/// compressed-away last commit stands in by its live heir — a live state
/// descends from it iff it descends from the heir — and the stand-in is
/// pinned, so it stays live. The destructor unpins it and gives the context
/// its last commit back. Construct under the commit lock.
class SessionFloor {
 public:
  SessionFloor(const StateDag& dag, TxnContext* ctx) : ctx_(ctx) {
    if (ctx->session_last_commit == nullptr) return;
    StatePtr floor = ctx->session_last_commit;
    if (floor->deleted.load()) floor = dag.ResolveLocked(floor->id());
    if (floor == nullptr) return;
    floor->PinAsReadState();
    original_ = std::exchange(ctx->session_last_commit, std::move(floor));
    pinned_ = true;
  }
  ~SessionFloor() {
    if (!pinned_) return;
    ctx_->session_last_commit->UnpinAsReadState();
    ctx_->session_last_commit = std::move(original_);
  }
  SessionFloor(const SessionFloor&) = delete;
  SessionFloor& operator=(const SessionFloor&) = delete;

 private:
  TxnContext* const ctx_;
  StatePtr original_;
  bool pinned_ = false;
};
}  // namespace

TardisStore::TardisStore(const TardisOptions& options)
    : options_(options),
      metrics_(options.metrics_registry
                   ? options.metrics_registry
                   : std::make_shared<obs::MetricsRegistry>()),
      dag_(options.site_id),
      default_begin_(AncestorBegin()),
      default_end_(SerializabilityEnd()) {
  RegisterMetrics();
}

void TardisStore::RegisterMetrics() {
  const obs::LabelSet site{{"site", std::to_string(options_.site_id)}};
  commits_total_ = metrics_->RegisterCounter(
      "tardis_txn_commits_total", "Committed update transactions", site);
  aborts_total_ = metrics_->RegisterCounter(
      "tardis_txn_aborts_total", "Aborted transactions", site);
  read_only_commits_total_ = metrics_->RegisterCounter(
      "tardis_txn_read_only_commits_total",
      "Read-only commits (not added to the State DAG)", site);
  remote_applied_total_ = metrics_->RegisterCounter(
      "tardis_txn_remote_applied_total",
      "Replicated transactions applied from other sites", site);
  forks_total_ = metrics_->RegisterCounter(
      "tardis_txn_forks_total",
      "Commits (local or replicated) that forked the State DAG", site);
  merges_total_ = metrics_->RegisterCounter(
      "tardis_txn_merges_total", "Locally committed merge transactions",
      site);
  commit_latency_us_ = metrics_->RegisterHistogram(
      "tardis_commit_latency_us",
      "Commit critical path latency, microseconds", site);
  merge_latency_us_ = metrics_->RegisterHistogram(
      "tardis_merge_latency_us",
      "Merge transaction commit latency, microseconds", site);
  // Stage histograms for the request-latency breakdown (DESIGN.md §7):
  // labelled only by stage so `metrics cluster` can sum them across
  // sites and partitions.
  stage_commit_select_us_ = obs::RegisterStageHistogram(metrics_.get(),
                                                        "commit_select");
  stage_wal_fsync_us_ = obs::RegisterStageHistogram(metrics_.get(),
                                                    "wal_fsync");
  // DAG shape gauges read the live structures at collect time; no shadow
  // counters to keep in sync.
  metrics_->RegisterCallbackGauge(
      "tardis_dag_states", "Live states in the State DAG",
      [this] { return static_cast<double>(dag_.state_count()); }, site, this);
  metrics_->RegisterCallbackGauge(
      "tardis_dag_leaves", "Branch tips (states without children)",
      [this] { return static_cast<double>(dag_.leaf_count()); }, site, this);
  metrics_->RegisterCallbackGauge(
      "tardis_dag_promotion_entries",
      "Promotion-table entries left behind by DAG compression",
      [this] { return static_cast<double>(dag_.promotion_table_size()); },
      site, this);
  metrics_->RegisterCallbackGauge(
      "tardis_dag_fork_path_max",
      "Entries in the longest fork path among the branch tips",
      [this] { return static_cast<double>(dag_.MaxLeafPathLength()); }, site,
      this);
  // Info metric: constant 1, the interesting part is the backend label
  // (Prometheus *_info convention).
  obs::LabelSet backend_labels = site;
  backend_labels.emplace_back("backend", backend_name());
  metrics_->RegisterCallbackGauge(
      "tardis_store_backend",
      "Record backend of this site (always 1; see the backend label)",
      [] { return 1.0; }, backend_labels, this);
  // Process-wide fault-injection counters (zero unless a test arms
  // faults); exported here so every site's registry sees them.
  fault::FaultRegistry::Global().BindMetrics(metrics_.get());
  // Exactly-once session dedup (DESIGN.md §13). Callback gauges are
  // owner-scoped to this store and dropped in the destructor.
  session_dedup_.RegisterMetrics(metrics_.get(), this);
}

TardisStore::~TardisStore() {
  if (gc_) gc_->StopBackground();
  // The registry may be shared and outlive this site: detach the gauges
  // that capture `this` before the DAG goes away.
  metrics_->DropCallbacks(this);
}

StatusOr<std::unique_ptr<TardisStore>> TardisStore::Open(
    const TardisOptions& options) {
  // Recovery reloads record values from the record store, so a durable
  // store needs the one backend that persists them.
  const bool durable = !options.dir.empty();
  if (durable != (options.backend == RecordBackend::kBTree)) {
    return Status::InvalidArgument(
        std::string("backend ") + RecordBackendName(options.backend) +
        (durable ? " cannot persist records; a dir needs btree"
                 : " needs a dir"));
  }
  std::unique_ptr<TardisStore> store(new TardisStore(options));

  fault::Env* env = fault::ResolveEnv(options.env);
  switch (options.backend) {
    case RecordBackend::kBTree: {
      TARDIS_RETURN_IF_ERROR(env->CreateDir(options.dir));
      auto rs = BTreeRecordStore::Open(options.dir + "/" + kRecordsFile,
                                       options.cache_pages, env);
      if (!rs.ok()) return rs.status();
      store->record_store_ = std::move(*rs);
      break;
    }
    case RecordBackend::kTrie:
      store->record_store_ = std::make_unique<TrieRecordStore>(
          store->metrics_.get(),
          obs::LabelSet{{"site", std::to_string(options.site_id)}});
      break;
    case RecordBackend::kMem:
      store->record_store_ = std::make_unique<MemRecordStore>();
      break;
  }

  if (durable && options.enable_commit_log) {
    auto log = CommitLog::Open(options.dir + "/" + kCommitLogFile,
                               options.flush_mode, env);
    if (!log.ok()) return log.status();
    store->commit_log_ = std::move(*log);
  }

  store->gc_ = std::make_unique<GarbageCollector>(
      &store->dag_, &store->kvmap_, store->record_store_.get(),
      store->metrics_.get());

  if (durable && options.recover_on_open) {
    TARDIS_RETURN_IF_ERROR(store->Recover());
  }
  return store;
}

std::unique_ptr<ClientSession> TardisStore::CreateSession() {
  return std::unique_ptr<ClientSession>(new ClientSession());
}

// ---- begin ------------------------------------------------------------------

StatusOr<TxnPtr> TardisStore::Begin(ClientSession* session,
                                    BeginConstraintPtr begin) {
  TARDIS_TRACE_SCOPE("txn", "begin");
  if (session == nullptr) return Status::InvalidArgument("null session");
  const BeginConstraintPtr& bc = begin ? begin : default_begin_;

  TxnPtr txn(new Transaction(this, session, Transaction::Mode::kSingle));
  txn->ctx_.session_last_commit = session->last_commit_;

  std::optional<SessionFloor> floor;
  if (session->last_commit_ != nullptr) {
    // children() is guarded by the DAG lock; an unlocked peek would race
    // with a concurrent committer appending to the tip.
    std::lock_guard<std::mutex> guard(dag_.Lock());
    // Fast path: a client extending its own branch reads from its last
    // committed state while that state is still a leaf — no DAG search.
    StatePtr tip = session->last_commit_;
    if (bc->PrefersSessionTip() && tip->children().empty() &&
        !tip->marked.load() && !tip->deleted.load()) {
      tip->PinAsReadState();
      txn->ctx_.read_states.push_back(std::move(tip));
      return txn;
    }
    floor.emplace(dag_, &txn->ctx_);
  }

  for (int attempt = 0; attempt < 64; attempt++) {
    // §6.1.1: BFS from the leaves up; the first (most recent) state that
    // satisfies the begin constraint becomes the read state. States above
    // a ceiling (marked) are skipped.
    const StateId newest = dag_.max_id();
    StatePtr chosen = dag_.BfsFromLeaves([&](const StatePtr& s) {
      if (s->marked.load() || s->deleted.load()) return false;
      return bc->Satisfies(txn->ctx_, *s);
    });
    if (chosen == nullptr) {
      // The walk starts from the leaves it read first. If commits grew
      // those leaves meanwhile and a ceiling marked them, every state it
      // reached may be marked: walk again from the new leaves.
      if (dag_.max_id() != newest) continue;
      return Status::Aborted("no state satisfies begin constraint " +
                             bc->name());
    }
    // Pin atomically with a liveness re-check so a concurrent GC pass
    // cannot delete the state between selection and pinning.
    std::lock_guard<std::mutex> guard(dag_.Lock());
    if (chosen->deleted.load() || chosen->marked.load()) continue;
    chosen->PinAsReadState();
    txn->ctx_.read_states.push_back(std::move(chosen));
    return txn;
  }
  return Status::Busy("could not pin a read state");
}

StatusOr<TxnPtr> TardisStore::BeginMerge(ClientSession* session,
                                         BeginConstraintPtr begin,
                                         size_t max_parents) {
  TARDIS_TRACE_SCOPE("txn", "begin_merge");
  if (session == nullptr) return Status::InvalidArgument("null session");
  const BeginConstraintPtr bc = begin ? begin : AnyBegin();

  TxnPtr txn(new Transaction(this, session, Transaction::Mode::kMerge));
  txn->ctx_.session_last_commit = session->last_commit_;
  std::optional<SessionFloor> floor;
  if (session->last_commit_ != nullptr) {
    std::lock_guard<std::mutex> guard(dag_.Lock());
    floor.emplace(dag_, &txn->ctx_);
  }

  for (int attempt = 0; attempt < 64; attempt++) {
    const StateId newest = dag_.max_id();
    std::vector<StatePtr> tips;
    for (const StatePtr& leaf : dag_.Leaves()) {
      if (leaf->marked.load() || leaf->deleted.load()) continue;
      if (!bc->Satisfies(txn->ctx_, *leaf)) continue;
      tips.push_back(leaf);
      if (max_parents != 0 && tips.size() == max_parents) break;
    }
    if (tips.empty()) {
      // As in Begin: the leaves read may have grown and been marked.
      if (dag_.max_id() != newest) continue;
      return Status::Aborted("no leaf satisfies begin constraint " +
                             bc->name());
    }
    std::lock_guard<std::mutex> guard(dag_.Lock());
    bool ok = true;
    for (const StatePtr& t : tips) {
      if (t->deleted.load()) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (const StatePtr& t : tips) {
      t->PinAsReadState();
      txn->ctx_.read_states.push_back(t);
    }
    return txn;
  }
  return Status::Busy("could not pin merge read states");
}

// ---- reads ------------------------------------------------------------------

Status TardisStore::LoadValue(const Slice& key, const VersionEntry& entry,
                              std::string* value) {
  if (entry.value != nullptr) {
    *value = *entry.value;
    return Status::OK();
  }
  // Post-recovery lazy load from the record store.
  return record_store_->Get(EncodeRecordKey(key, entry.sid), value);
}

void TardisStore::PersistRecord(const std::string& key, StateId sid,
                                const std::string& value) {
  // Without a dir nothing reloads records: the version map holds the one
  // copy of each value.
  if (options_.dir.empty()) return;
  Status s = record_store_->Put(EncodeRecordKey(key, sid), value);
  if (!s.ok()) {
    commit_log_degraded_.store(true, std::memory_order_relaxed);
    TARDIS_ERROR("record persist: %s", s.ToString().c_str());
  }
}

StatusOr<std::shared_ptr<const std::string>> TardisStore::ReadOwnVersion(
    const Slice& key, StateId sid) {
  auto entry = kvmap_.Get(key, sid);
  if (!entry.ok()) return entry.status();
  if (entry->value != nullptr) return entry->value;
  std::string loaded;
  TARDIS_RETURN_IF_ERROR(LoadValue(key, *entry, &loaded));
  return std::make_shared<const std::string>(std::move(loaded));
}

Status TardisStore::TxnGet(Transaction* t, const Slice& key,
                           std::string* value) {
  if (t->ctx_.read_states.empty()) {
    return Status::InvalidArgument("transaction has no read state");
  }
  auto entry = kvmap_.GetVisible(key, *t->ctx_.read_states[0]);
  if (!entry.ok()) return entry.status();
  return LoadValue(key, *entry, value);
}

Status TardisStore::TxnGetForId(Transaction* t, const Slice& key,
                                StateId sid, std::string* value) {
  // Read states are pinned already. Any other state, or the heir a
  // compressed-away id resolves to, is pinned for the read in the same
  // commit-lock hold that resolves it: the GC deletes no pinned state, so
  // it cannot prune a version this read needs (DESIGN.md §4b).
  StatePtr state;
  for (const StatePtr& s : t->ctx_.read_states) {
    if (s->id() == sid) state = s;
  }
  bool pinned = false;
  if (state == nullptr) {
    std::lock_guard<std::mutex> guard(dag_.Lock());
    state = dag_.ResolveLocked(sid);
    if (state != nullptr) {
      state->PinAsReadState();
      pinned = true;
    }
  }
  if (state == nullptr) {
    return Status::Unavailable("state " + std::to_string(sid) +
                               " unknown or garbage-collected");
  }
  auto entry = kvmap_.GetVisible(key, *state);
  Status s = entry.ok() ? LoadValue(key, *entry, value) : entry.status();
  if (pinned) state->UnpinAsReadState();
  return s;
}

// ---- commit -----------------------------------------------------------------

Status TardisStore::CommitTxn(Transaction* t, const EndConstraintPtr& ec_in) {
  TARDIS_TRACE_SCOPE("txn", "commit");
  const uint64_t commit_start_us = NowMicros();
  const EndConstraintPtr& ec = ec_in ? ec_in : default_end_;

  // Read-only transactions are not added to the State DAG (§6.1.4) and
  // need no validation: their snapshot is a committed state. A *merge*
  // over several branches is the exception — even with nothing to write
  // (no conflicting keys), its entire purpose is to produce the joined
  // state, so it always commits into the DAG.
  const bool joins_branches = t->mode() == Transaction::Mode::kMerge &&
                              t->ctx_.read_states.size() > 1;
  if (t->write_cache_.empty() && !joins_branches) {
    t->Finish();
    read_only_commits_total_->Increment();
    return Status::OK();
  }

  StatePtr new_state;
  bool forked = false;
  {
    std::lock_guard<std::mutex> guard(dag_.Lock());
    TARDIS_TRACE_SCOPE("txn", "ripple_down");

    // §6.1.2 / Figure 6: from each read state, ripple down through
    // concurrently committed states that the end constraint tolerates;
    // stop before the first one it does not.
    std::vector<StatePtr> parents;
    {
      obs::StageTimer select_stage(stage_commit_select_us_, "commit_select");
      for (const StatePtr& read_state : t->ctx_.read_states) {
        StatePtr cand = read_state;
        while (true) {
          StatePtr next;
          for (const StatePtr& child : cand->children()) {
            if (ec->StepOk(t->ctx_, *child)) {
              next = child;
              break;
            }
          }
          if (next == nullptr) break;
          cand = std::move(next);
        }
        if (!ec->FinalOk(t->ctx_, *cand)) {
          // The structural part of the constraint is unsatisfiable: abort.
          // (Counter increments are lock-free, so doing this inside the
          // commit critical section costs one relaxed fetch_add.)
          AbortTxn(t);
          return Status::Aborted("end constraint " + ec->name() +
                                 " unsatisfiable at state " +
                                 std::to_string(cand->id()));
        }
        if (std::find(parents.begin(), parents.end(), cand) ==
            parents.end()) {
          parents.push_back(std::move(cand));
        }
      }

      for (const StatePtr& p : parents) {
        if (!p->children().empty()) forked = true;
      }
    }

    const bool is_merge = parents.size() > 1;
    new_state = dag_.CreateStateLocked(parents, dag_.NextLocalGuid(),
                                       t->ctx_.writes, is_merge);
    if (t->session_tag_id_ != 0) {
      new_state->set_session_tag(t->session_tag_id_, t->session_tag_seq_);
    }

    // Publish versions before releasing the commit lock so any
    // transaction that selects new_state as its read state sees them.
    for (const auto& [key, value] : t->write_cache_) {
      kvmap_.AddVersion(key, new_state, value);
    }

    if (commit_log_) {
      CommitLogEntry entry;
      entry.id = new_state->id();
      entry.guid = new_state->guid();
      for (const StatePtr& p : new_state->parents()) {
        entry.parent_ids.push_back(p->id());
      }
      entry.is_merge = is_merge;
      for (const auto& [key, value] : t->write_cache_) {
        entry.write_keys.push_back(key);
      }
      entry.session_id = t->session_tag_id_;
      entry.session_seq = t->session_tag_seq_;
      obs::StageTimer fsync_stage(stage_wal_fsync_us_, "wal_fsync");
      Status s = commit_log_->Append(entry);
      if (!s.ok()) {
        // Availability over durability: the commit stands in memory, but
        // the on-disk log no longer covers it — degrade so Flush and
        // Checkpoint stop promising durability (§6.5).
        commit_log_degraded_.store(true, std::memory_order_relaxed);
        TARDIS_ERROR("commit log append: %s", s.ToString().c_str());
      }
    }
  }

  // Persistence of the record payloads happens outside the critical
  // section; reads are already served from the version entries.
  for (const auto& [key, value] : t->write_cache_) {
    PersistRecord(key, new_state->id(), *value);
  }

  t->session_->last_commit_ = new_state;

  // The dedup entry becomes visible only after the commit (and its log
  // entry) exist: a concurrent retry either misses it and re-executes
  // against the same (sid, seq) — caught as a duplicate — or hits it and
  // gets the original state back.
  if (t->session_tag_id_ != 0) {
    session_dedup_.Record(t->session_tag_id_, t->session_tag_seq_,
                          new_state->guid());
  }

  // Automatic checkpointing (§6.5): once the commit log grows past the
  // configured bound, snapshot the DAG and truncate it. At most one
  // committer runs the checkpoint; the others proceed.
  if (commit_log_ && options_.checkpoint_log_bytes > 0 &&
      commit_log_->appended_bytes() > options_.checkpoint_log_bytes &&
      !checkpoint_running_.exchange(true)) {
    Status s = Checkpoint();
    if (!s.ok()) TARDIS_ERROR("auto checkpoint: %s", s.ToString().c_str());
    checkpoint_running_.store(false);
  }

  CommitRecord record;
  if (commit_cb_) {
    record.guid = new_state->guid();
    for (const StatePtr& p : new_state->parents()) {
      record.parent_guids.push_back(p->guid());
    }
    record.is_merge = new_state->is_merge();
    for (const auto& [key, value] : t->write_cache_) {
      record.writes.emplace_back(key, value);
    }
    record.session_id = t->session_tag_id_;
    record.session_seq = t->session_tag_seq_;
  }

  const bool was_merge = t->mode() == Transaction::Mode::kMerge;
  t->forked_ = forked;
  t->Finish();
  commits_total_->Increment();
  if (forked) {
    forks_total_->Increment();
    TARDIS_TRACE_INSTANT("txn", "fork");
  }
  if (was_merge) {
    merges_total_->Increment();
    TARDIS_TRACE_INSTANT("txn", "merge");
  }
  (was_merge ? merge_latency_us_ : commit_latency_us_)
      ->Observe(NowMicros() - commit_start_us);

  if (commit_cb_) commit_cb_(record);
  return Status::OK();
}

void TardisStore::AbortTxn(Transaction* t) {
  t->Finish();
  aborts_total_->Increment();
}

// ---- replication -------------------------------------------------------------

Status TardisStore::ApplyRemote(const CommitRecord& record) {
  TARDIS_TRACE_SCOPE("repl", "apply");
  StatePtr new_state;
  bool forked = false;
  {
    std::lock_guard<std::mutex> guard(dag_.Lock());
    if (dag_.ResolveGuidLocked(record.guid) != nullptr) {
      return Status::OK();  // duplicate delivery: idempotent
    }
    std::vector<StatePtr> parents;
    for (const GlobalStateId& pg : record.parent_guids) {
      StatePtr p = dag_.ResolveGuidLocked(pg);
      if (p == nullptr) {
        return Status::Unavailable("parent state " + pg.ToString() +
                                   " not yet replicated");
      }
      parents.push_back(std::move(p));
    }
    // A remote commit whose parent already has local children forks the
    // DAG here exactly as a conflicting local commit would.
    for (const StatePtr& p : parents) {
      if (!p->children().empty()) forked = true;
    }
    KeySet writes;
    for (const auto& [key, value] : record.writes) writes.Add(key);

    new_state = dag_.CreateStateLocked(parents, record.guid,
                                       std::move(writes), record.is_merge);
    if (record.session_id != 0) {
      new_state->set_session_tag(record.session_id, record.session_seq);
    }
    for (const auto& [key, value] : record.writes) {
      kvmap_.AddVersion(key, new_state, value);
    }
    if (commit_log_) {
      CommitLogEntry entry;
      entry.id = new_state->id();
      entry.guid = new_state->guid();
      for (const StatePtr& p : new_state->parents()) {
        entry.parent_ids.push_back(p->id());
      }
      entry.is_merge = record.is_merge;
      for (const auto& [key, value] : record.writes) {
        entry.write_keys.push_back(key);
      }
      entry.session_id = record.session_id;
      entry.session_seq = record.session_seq;
      obs::StageTimer fsync_stage(stage_wal_fsync_us_, "wal_fsync");
      Status s = commit_log_->Append(entry);
      if (!s.ok()) {
        commit_log_degraded_.store(true, std::memory_order_relaxed);
        TARDIS_ERROR("commit log append: %s", s.ToString().c_str());
      }
    }
  }
  for (const auto& [key, value] : record.writes) {
    PersistRecord(key, new_state->id(), *value);
  }
  if (record.session_id != 0) {
    // A gossiped tagged commit extends dedup coverage to this site: a
    // client failing over here with the same (sid, seq) gets the original
    // state, not a second commit.
    session_dedup_.Record(record.session_id, record.session_seq,
                          record.guid);
  }
  remote_applied_total_->Increment();
  if (forked) {
    forks_total_->Increment();
    TARDIS_TRACE_INSTANT("repl", "fork");
  }
  return Status::OK();
}

// ---- GC -----------------------------------------------------------------------

void TardisStore::PlaceCeiling(ClientSession* session) {
  if (session == nullptr || session->last_commit_ == nullptr) return;
  gc_->PlaceCeiling(session->last_commit_);
}

// ---- durability ----------------------------------------------------------------

Status TardisStore::Flush() {
  if (commit_log_degraded()) {
    return Status::IOError(
        "store is durability-degraded: a commit log append or record "
        "persist failed; reopen to recover");
  }
  TARDIS_RETURN_IF_ERROR(record_store_->Sync());
  if (commit_log_) TARDIS_RETURN_IF_ERROR(commit_log_->Sync());
  return Status::OK();
}

Status TardisStore::Checkpoint() {
  if (options_.dir.empty()) {
    return Status::NotSupported("checkpoint requires a durable store");
  }
  if (commit_log_degraded()) {
    return Status::IOError(
        "refusing checkpoint while durability-degraded: the snapshot "
        "would cover states whose records were never persisted");
  }
  // (i) flush outstanding record writes, (ii) snapshot the DAG, (iii)
  // truncate the commit log it makes redundant (§6.5).
  TARDIS_RETURN_IF_ERROR(record_store_->Sync());

  std::vector<CommitLogEntry> snapshot = SnapshotDag();

  fault::Env* env = fault::ResolveEnv(options_.env);
  const std::string tmp = options_.dir + "/" + kCheckpointTmpFile;
  const std::string final_path = options_.dir + "/" + kCheckpointFile;
  TARDIS_RETURN_IF_ERROR(env->RemoveFile(tmp));
  {
    auto ckpt = CommitLog::Open(tmp, Wal::FlushMode::kAsync, options_.env);
    if (!ckpt.ok()) return ckpt.status();
    for (const CommitLogEntry& entry : snapshot) {
      TARDIS_RETURN_IF_ERROR((*ckpt)->Append(entry));
    }
    TARDIS_RETURN_IF_ERROR((*ckpt)->Sync());
  }
  TARDIS_FAULT_POINT("store.checkpoint.rename");
  TARDIS_RETURN_IF_ERROR(env->RenameFile(tmp, final_path));
  if (commit_log_) TARDIS_RETURN_IF_ERROR(commit_log_->Truncate());
  return Status::OK();
}

// ---- recovery -------------------------------------------------------------------

Status TardisStore::RecoverEntry(const CommitLogEntry& entry,
                                 bool check_persistence, bool* stop) {
  if (*stop) return Status::OK();

  if (check_persistence) {
    // §6.5: a transaction whose write set is only partially persistent is
    // discarded along with everything after it in the log.
    for (const std::string& key : entry.write_keys) {
      std::string scratch;
      if (!record_store_->Get(EncodeRecordKey(key, entry.id), &scratch)
               .ok()) {
        TARDIS_WARN(
            "recovery: log entry id=%llu guid=%s dropped (record for '%s' "
            "not persistent); discarding the log suffix",
            static_cast<unsigned long long>(entry.id),
            entry.guid.ToString().c_str(), key.c_str());
        *stop = true;
        return Status::OK();
      }
    }
  }

  std::lock_guard<std::mutex> guard(dag_.Lock());
  if (dag_.ResolveLocked(entry.id) != nullptr) return Status::OK();
  std::vector<StatePtr> parents;
  for (StateId pid : entry.parent_ids) {
    StatePtr p = dag_.ResolveLocked(pid);
    if (p == nullptr) {
      TARDIS_WARN(
          "recovery: log entry id=%llu guid=%s dropped (parent id=%llu "
          "missing); discarding the log suffix",
          static_cast<unsigned long long>(entry.id),
          entry.guid.ToString().c_str(),
          static_cast<unsigned long long>(pid));
      *stop = true;
      return Status::OK();
    }
    parents.push_back(std::move(p));
  }
  KeySet writes;
  for (const std::string& k : entry.write_keys) writes.Add(k);
  StatePtr state = dag_.CreateStateWithIdLocked(
      entry.id, parents, entry.guid, std::move(writes), entry.is_merge);
  if (entry.session_id != 0) {
    // Rebuild the exactly-once dedup table from the replayed log, so a
    // client retrying across this site's crash-restart still dedups.
    state->set_session_tag(entry.session_id, entry.session_seq);
    session_dedup_.Record(entry.session_id, entry.session_seq, entry.guid);
  }
  // Values load lazily from the record store on first read.
  for (const std::string& k : entry.write_keys) {
    kvmap_.AddVersion(k, state, nullptr);
  }
  return Status::OK();
}

std::vector<CommitLogEntry> TardisStore::SnapshotDag() {
  std::vector<CommitLogEntry> snapshot;
  std::lock_guard<std::mutex> guard(dag_.Lock());
  for (const StatePtr& s : dag_.AllStatesLocked()) {
    if (s->parents().empty()) continue;  // root is implicit
    CommitLogEntry entry;
    entry.id = s->id();
    entry.guid = s->guid();
    for (const StatePtr& p : s->parents()) {
      entry.parent_ids.push_back(p->id());
    }
    entry.is_merge = s->is_merge();
    entry.write_keys = s->write_set().keys();
    entry.session_id = s->session_id();
    entry.session_seq = s->session_seq();
    snapshot.push_back(std::move(entry));
  }
  return snapshot;
}

Status TardisStore::Recover() {
  bool stop = false;
  fault::Env* env = fault::ResolveEnv(options_.env);
  const std::string ckpt_path = options_.dir + "/" + kCheckpointFile;
  if (env->FileExists(ckpt_path)) {
    auto ckpt = CommitLog::Open(ckpt_path, Wal::FlushMode::kAsync,
                                options_.env);
    if (!ckpt.ok()) return ckpt.status();
    TARDIS_RETURN_IF_ERROR(
        (*ckpt)->Replay([this, &stop](const CommitLogEntry& entry) {
          return RecoverEntry(entry, /*check_persistence=*/false, &stop);
        }));
  }
  stop = false;
  if (commit_log_) {
    TARDIS_RETURN_IF_ERROR(
        commit_log_->Replay([this, &stop](const CommitLogEntry& entry) {
          return RecoverEntry(entry, /*check_persistence=*/true, &stop);
        }));
    if (stop) {
      // A suffix of the log was discarded (records lost in the crash).
      // Those entries are dead forever, but left in place they would sit
      // between the valid history and everything appended from now on,
      // and the *next* recovery would stop at them — silently dropping
      // commits that were flushed after this reopen. Rewrite the log to
      // exactly the surviving history.
      std::vector<CommitLogEntry> snapshot = SnapshotDag();
      TARDIS_WARN(
          "recovery: rewriting commit log with the %zu surviving states",
          snapshot.size());
      TARDIS_RETURN_IF_ERROR(commit_log_->Truncate());
      for (const CommitLogEntry& entry : snapshot) {
        TARDIS_RETURN_IF_ERROR(commit_log_->Append(entry));
      }
      TARDIS_RETURN_IF_ERROR(commit_log_->Sync());
    }
  }
  // A flushed record can outlive its commit-log entry (the crash took the
  // log tail but not the B-Tree pages). Reissuing such a record's state id
  // would alias its B-Tree key: if the new commit's own record persist
  // then failed, reads would load the stale value. Move the id counter
  // past every id the record store still knows.
  if (record_store_) {
    StateId max_sid = 0;
    TARDIS_RETURN_IF_ERROR(record_store_->ForEachKey(
        [&max_sid](const Slice& record_key) {
          std::string user_key;
          StateId sid = 0;
          if (DecodeRecordKey(record_key, &user_key, &sid) && sid > max_sid) {
            max_sid = sid;
          }
          return Status::OK();
        }));
    dag_.AdvanceIdFloor(max_sid);
  }
  return Status::OK();
}

}  // namespace tardis
