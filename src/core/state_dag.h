// StateDag: the consistency layer's directed acyclic graph of logical
// database states (§4, §6.1).
//
// Responsibilities:
//  * creating states (normal commits append one parent; merge commits
//    several) and assigning monotone local ids;
//  * maintaining fork paths. A state's fork path contains (a, b) for every
//    ancestor fork state a reached through its b-th child. Fork entries
//    materialize when a state gains its *second* child: the new child gets
//    (parent, slot) and the existing child subtree is retroactively
//    annotated with (parent, 1). The retroactive pass runs inside the
//    commit critical section, before the new state is published, but
//    readers check Fig. 7 without the lock while it swaps one path at a
//    time. It therefore rewrites descendants before ancestors: a reader
//    can see its own new path beside an ancestor's old one (old ⊆ new, so
//    the ancestor's versions stay visible), never the reverse. Records
//    created before the fork are filtered by the id comparison in
//    descendantCheck. A plain chain commit shares its parent's path
//    object;
//  * the id-order invariant: every edge goes from a smaller id to a larger
//    one. Fork-point and conflict searches rely on it to walk only the
//    states above the fork point, in descending id order;
//  * the leaf set, which read-state selection walks "from the leaves up";
//  * the promotion table id -> id left behind by DAG compression (§6.3),
//    resolved union-find style;
//  * the structural half of DAG compression: Fig. 8 splices out
//    single-child states, and the collector first drops the redundant
//    edges that keep a reconciled fork point from having one child;
//  * closed forks: while the collector prunes their entries from the
//    paths, each state created meanwhile gets a path already without
//    them;
//  * mapping GlobalStateIds to states for the replicator.
//
// All structural mutation happens under mu_ (the commit lock). Read-side
// helpers (DescendantCheck) touch only immutable snapshots and atomics.
//
// Garbage-collection invariants (DESIGN.md §4b):
//  * Lock order: mu_, then promo_mu_. promo_mu_ guards only the promotion
//    table; it is taken alone by ResolvePromotedId and promotion_table_size
//    and nested inside mu_ by ResolveLocked and DeleteStateLocked.
//  * Single deleter: only the garbage collector calls DeleteStateLocked,
//    and it runs one cycle at a time. So while a cycle runs, an id with no
//    promotion-table entry names a live state, and the table resolves a
//    dead id to its live heir without mu_.
//  * A state's parents() vector is written when the state is created
//    (before it is published) and otherwise only by the collector's
//    DeleteStateLocked and DropRedundantEdgesLocked. The collector may
//    therefore read parents() without mu_; children() needs mu_, because
//    every commit appends to it.

#ifndef TARDIS_CORE_STATE_DAG_H_
#define TARDIS_CORE_STATE_DAG_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/state.h"
#include "core/types.h"
#include "util/status.h"

namespace tardis {

class StateDag {
 public:
  /// Creates the DAG with its initial (empty-database) root state.
  explicit StateDag(uint32_t site_id = 0);

  StateDag(const StateDag&) = delete;
  StateDag& operator=(const StateDag&) = delete;

  /// The initial state.
  StatePtr root() const { return root_; }
  uint32_t site_id() const { return site_id_; }

  /// Figure 7: can a transaction whose read state is `reader` see records
  /// tagged with state `writer`? True iff writer is an ancestor-or-self of
  /// reader. Thread-safe without the DAG lock. `writer` is live, or a
  /// deleted state that still owns a version entry (the collector prunes
  /// the paths of both, DESIGN.md §4b).
  static bool DescendantCheck(const State& writer, const State& reader);

  /// Appends a new state with the given parents (>=1; >1 for merges).
  /// `guid` must be unique; pass NextLocalGuid() for locally originated
  /// commits. Returns the published state. Caller must hold the commit
  /// lock (Lock()).
  StatePtr CreateStateLocked(const std::vector<StatePtr>& parents,
                             GlobalStateId guid, KeySet write_set,
                             bool is_merge);

  /// As CreateStateLocked but with a caller-chosen local id (recovery
  /// replays states under their original ids so record B-Tree keys stay
  /// valid, §6.5). Advances the id/seq counters past the given values.
  /// `id` must exceed every parent's id.
  StatePtr CreateStateWithIdLocked(StateId id,
                                   const std::vector<StatePtr>& parents,
                                   GlobalStateId guid, KeySet write_set,
                                   bool is_merge);

  /// Fresh replication identity for a local commit.
  GlobalStateId NextLocalGuid();

  /// Raises the local sequence counter to at least `seq`. Crash recovery
  /// replays the durable commit log, which advances the counter past every
  /// *recovered* commit — but a commit whose log record was lost in the
  /// crash may already have escaped to peers, and reusing its sequence
  /// would mint a second, different state under the same guid. A deployment
  /// that knows an upper bound on the pre-crash sequence (e.g. from an
  /// out-of-band high-water mark) calls this after recovery to move new
  /// local guids past the ambiguous range.
  void AdvanceSeqFloor(uint64_t seq) {
    uint64_t cur = next_seq_.load();
    while (cur < seq && !next_seq_.compare_exchange_weak(cur, seq)) {
    }
  }

  /// Highest local sequence issued so far (0 = none). Session floor
  /// checks compare a client's read-your-writes floor for this site
  /// against it.
  uint64_t local_seq() const { return next_seq_.load(); }

  /// Raises the local state-id counter past `id`. Record B-Tree keys embed
  /// local ids, and a flushed record can outlive its commit-log entry in a
  /// crash; if a restarted incarnation reissued such an id for a commit
  /// whose own record persist then failed, reads would load the stale
  /// record under the aliased key. Recovery calls this with the largest id
  /// found in the record store.
  void AdvanceIdFloor(StateId id) {
    uint64_t expect = next_id_.load();
    while (expect <= id && !next_id_.compare_exchange_weak(expect, id + 1)) {
    }
  }

  /// Lock-held variants of Resolve/ResolveGuid (callers inside the commit
  /// critical section).
  StatePtr ResolveLocked(StateId id) const;

  /// Follows the promotion table from `id` to the first id without an
  /// entry (path-compressing the chain), holding only the promotion-table
  /// lock. That id is live when the caller holds the commit lock, or is
  /// the collector between its deletions (the single-deleter invariant);
  /// any other caller wants Resolve.
  StateId ResolvePromotedId(StateId id) const;
  StatePtr ResolveGuidLocked(const GlobalStateId& guid) const;

  /// The commit lock. Commit-state selection, state creation and version
  /// publication happen under it.
  std::mutex& Lock() { return mu_; }

  /// Snapshot of the current leaves (states without children), most
  /// recent first. Thread-safe.
  std::vector<StatePtr> Leaves() const;

  /// Resolves a (possibly garbage-collected) state id to the live state
  /// that took over its identity, following the promotion table.
  /// Returns nullptr if the id is unknown.
  StatePtr Resolve(StateId id) const;

  /// Lookup by replication identity (nullptr if absent). Follows
  /// promotions.
  StatePtr ResolveGuid(const GlobalStateId& guid) const;

  /// Breadth-first search upward from the leaves; invokes `visit` on each
  /// state in recency order until it returns true (state chosen) or the
  /// DAG is exhausted. Returns the chosen state or nullptr. Thread-safe.
  StatePtr BfsFromLeaves(
      const std::function<bool(const StatePtr&)>& visit) const;

  /// Deepest common ancestor of `states` — the fork point exposed by
  /// findForkPoints (§6.2): the common ancestor with the largest id. For
  /// states on the same branch returns the shallower one. One walk down
  /// from the tips in descending id order, stopping at the answer, so its
  /// cost grows with the branches, not with the history.
  StatePtr FindForkPoint(const std::vector<StatePtr>& states) const;

  /// The *structured* set of fork points (Table 2): the deepest common
  /// ancestor of every pair of `states`, deduplicated and ordered deepest
  /// (most recent) first. The first element is the overall fork point the
  /// paper's examples use. All pairs come from the same single walk.
  std::vector<StatePtr> FindForkPoints(
      const std::vector<StatePtr>& states) const;

  /// Human-readable dump of the DAG (ids, guids, edges, fork paths,
  /// per-state write sets) for debugging and the interactive shell.
  std::string DebugString() const;
  /// Graphviz dot rendering of the DAG.
  std::string ToDot() const;

  /// Union of the write sets of all states strictly below `fork` on the
  /// branches leading to each of `tips` — the raw material of
  /// findConflictWrites. Keys written on >=2 of the branches are
  /// conflicting.
  KeySet FindConflictWrites(const StatePtr& fork,
                            const std::vector<StatePtr>& tips) const;

  // ---- GC support (used by GarbageCollector; all require Lock()) --------

  /// Unlinks `victim` from the DAG and records Promote(victim -> heir)
  /// (record promotion will move the actual versions). Only the garbage
  /// collector calls this (the single-deleter invariant above). `heir`
  /// must be victim's only child, as GC guarantees: splicing a victim with
  /// several children would link the heir (the newest child) to an older
  /// sibling and break the id-order invariant (checked by a debug assert).
  void DeleteStateLocked(const StatePtr& victim, const StatePtr& heir);

  /// Drops every edge s -> c for which Fig. 7 says s is an ancestor of
  /// another parent of c, keeping at least one child. Reachability and
  /// every stored path stay as they are. The collector calls it for
  /// safe-to-gc fork points, so that a fork point whose branches one merge
  /// reconciled is left with one child and compresses like a chain state.
  /// Returns the number of edges dropped.
  size_t DropRedundantEdgesLocked(const StatePtr& s);

  /// Publishes the closed forks not yet retired (null: none). Every new
  /// fork or merge path leaves them out and remembers them; while
  /// `pruning`, so does every new chain path.
  void SetClosedForksLocked(std::shared_ptr<const ClosedForks> closed,
                            bool pruning) {
    closed_ = std::move(closed);
    pruning_ = pruning;
  }

  /// Makes room in the promotion table for `n` more entries. The collector
  /// calls it without the commit lock before a batch of deletions, so that
  /// DeleteStateLocked never rehashes the table under that lock.
  void ReservePromotions(size_t n);

  /// All live states, id order. Requires Lock().
  std::vector<StatePtr> AllStatesLocked() const;

  /// Live states and leaves; read without the commit lock.
  size_t state_count() const {
    return state_count_.load(std::memory_order_relaxed);
  }
  size_t leaf_count() const {
    return leaf_count_.load(std::memory_order_relaxed);
  }
  size_t promotion_table_size() const;
  /// Entries in the longest fork path among the leaves. Takes the lock.
  size_t MaxLeafPathLength() const;
  uint64_t max_id() const { return next_id_.load() - 1; }

 private:
  void RetroactiveForkAnnotationLocked(const StatePtr& first_child,
                                       ForkPoint entry);
  /// Republishes state_count_/leaf_count_ after by_id_ or leaves_ change.
  void UpdateCountsLocked() {
    state_count_.store(by_id_.size(), std::memory_order_relaxed);
    leaf_count_.store(leaves_.size(), std::memory_order_relaxed);
  }

  const uint32_t site_id_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_seq_{0};

  mutable std::mutex mu_;  // commit lock: DAG structure + leaf set

  StatePtr root_;
  std::unordered_map<StateId, StatePtr> by_id_;
  std::unordered_map<GlobalStateId, StatePtr, GlobalStateIdHash> by_guid_;
  std::unordered_set<State*> leaves_;
  std::atomic<size_t> state_count_{0};
  std::atomic<size_t> leaf_count_{0};
  // The collector's closed forks and whether it is pruning live paths of
  // them; guarded by mu_.
  std::shared_ptr<const ClosedForks> closed_;
  bool pruning_ = false;

  mutable std::mutex promo_mu_;  // promotion table; nests inside mu_
  // victim id -> heir id. Resolve() follows chains union-find style with
  // path compression (chains are repointed at the live state they reach).
  mutable std::unordered_map<StateId, StateId> promoted_;
  mutable std::vector<StateId> visited_scratch_;  // guarded by promo_mu_
};

}  // namespace tardis

#endif  // TARDIS_CORE_STATE_DAG_H_
