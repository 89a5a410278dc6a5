// Transaction: the unit of execution against a TARDiS site (Table 2).
//
// Single-mode transactions read from and write to one branch and look
// exactly like transactions on sequential storage. Merge-mode
// transactions (beginMerge) select several branch tips as read states and
// atomically write back one merged state; the three merge helpers —
// FindForkPoints, FindConflictWrites, GetForId — expose the branch
// structure the application needs to reconcile them (§5.1, §6.2).
//
// A Transaction is owned and driven by a single client thread.

#ifndef TARDIS_CORE_TRANSACTION_H_
#define TARDIS_CORE_TRANSACTION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/txn_context.h"
#include "core/types.h"
#include "util/slice.h"
#include "util/status.h"

namespace tardis {

class TardisStore;
class ClientSession;

class Transaction {
 public:
  enum class Mode { kSingle, kMerge };

  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  Mode mode() const { return mode_; }
  bool active() const { return active_; }

  /// Reads `key` on this transaction's branch (first read state in merge
  /// mode). Sees the transaction's own earlier writes.
  Status Get(const Slice& key, std::string* value);

  /// Buffers a write; becomes visible at commit.
  Status Put(const Slice& key, const Slice& value);

  /// Table 2 getForID: the value of `key` at state `sid` (any state,
  /// typically a fork point or one of parents()). Follows GC promotions.
  Status GetForId(const Slice& key, StateId sid, std::string* value);

  /// Local ids of the read states ("t.parents" in the paper's examples).
  std::vector<StateId> parents() const;

  /// Table 2 findForkPoints: the structured set of fork points of the
  /// given states — the deduplicated pairwise deepest common ancestors.
  /// The first element is the overall fork point (what the paper's
  /// examples use as `.first`); with two branches it is the only one.
  StatusOr<std::vector<StateId>> FindForkPoints(
      const std::vector<StateId>& states) const;

  /// Table 2 findConflictWrites: keys written on >= 2 of the branches
  /// leading to `states` since their fork point.
  StatusOr<std::vector<std::string>> FindConflictWrites(
      const std::vector<StateId>& states) const;

  /// Commits under `end_constraint` (store default if null). On
  /// Status::Aborted the transaction is finished and must be retried by
  /// the caller with a fresh Begin.
  Status Commit(EndConstraintPtr end_constraint = nullptr);

  /// Abandons the transaction (always succeeds).
  void Abort();

  /// Tags the commit with an exactly-once client session identity
  /// (DESIGN.md §13). The tag rides the commit-log entry and the
  /// replicated CommitRecord, feeding every site's dedup table.
  void SetSessionTag(uint64_t session_id, uint64_t session_seq) {
    session_tag_id_ = session_id;
    session_tag_seq_ = session_seq;
  }
  uint64_t session_tag_id() const { return session_tag_id_; }
  uint64_t session_tag_seq() const { return session_tag_seq_; }

  /// True once Commit succeeded and the new state forked the DAG: some
  /// parent it attached to already had a child.
  bool forked() const { return forked_; }

  const TxnContext& context() const { return ctx_; }

 private:
  friend class TardisStore;
  Transaction(TardisStore* store, ClientSession* session, Mode mode);

  void Finish();
  /// `sid` as a live state: one of the pinned read states directly (GC
  /// never deletes a pinned state, so no commit lock is needed), any
  /// other id through the DAG's promotion table. Null if unknown.
  StatePtr ResolveState(StateId sid) const;
  /// ResolveState over `states`; Unavailable for an unknown id.
  StatusOr<std::vector<StatePtr>> ResolveStates(
      const std::vector<StateId>& states) const;

  TardisStore* const store_;
  ClientSession* const session_;
  const Mode mode_;
  TxnContext ctx_;
  /// Buffered writes (last value per key wins).
  std::map<std::string, std::shared_ptr<const std::string>> write_cache_;
  uint64_t session_tag_id_ = 0;
  uint64_t session_tag_seq_ = 0;
  bool forked_ = false;
  bool active_ = true;
};

using TxnPtr = std::unique_ptr<Transaction>;

}  // namespace tardis

#endif  // TARDIS_CORE_TRANSACTION_H_
