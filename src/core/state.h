// State: a vertex of the State DAG (§4). Each update transaction that
// commits creates one state; read-only transactions do not (§6.1.4).
//
// Lifetime: states are held by shared_ptr from (a) the DAG's id map,
// (b) parent/child edges, (c) record version entries, and (d) executing
// transactions' read-state pins. DAG compression unlinks a state from the
// id map and the edges; the object is reclaimed once the last version
// entry referencing it has been promoted (§6.3).

#ifndef TARDIS_CORE_STATE_H_
#define TARDIS_CORE_STATE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/types.h"
#include "util/spinlock.h"

namespace tardis {

class State;
using StatePtr = std::shared_ptr<State>;

class State {
 public:
  State(StateId id, GlobalStateId guid) : id_(id), guid_(guid) {}

  StateId id() const { return id_; }
  const GlobalStateId& guid() const { return guid_; }

  /// Immutable-snapshot fork path. Mutations (the retroactive update when
  /// a state gains a second child, see StateDag) swap the pointer; readers
  /// always see a consistent path. The object may be shared with other
  /// states on the same branch segment. A one-byte spin lock guards the
  /// pointer: libstdc++'s std::atomic<std::shared_ptr> releases its
  /// internal lock with a relaxed store after a load, which leaves the
  /// load unordered with the next store (a data race ThreadSanitizer
  /// reports).
  std::shared_ptr<const ForkPath> fork_path() const {
    std::lock_guard<SpinLock> guard(fork_path_mu_);
    return fork_path_;
  }
  void set_fork_path(std::shared_ptr<const ForkPath> p) {
    std::lock_guard<SpinLock> guard(fork_path_mu_);
    fork_path_.swap(p);  // the old path is released after the lock
  }
  /// True iff the fork path is still `p`; takes no reference. A swap
  /// always installs a new object, so an unchanged pointer means no swap.
  bool fork_path_is(const ForkPath* p) const {
    std::lock_guard<SpinLock> guard(fork_path_mu_);
    return fork_path_.get() == p;
  }

  // --- DAG structure. Written under the owning StateDag's mutex. A state's
  // --- parents change only at creation and when the garbage collector
  // --- splices a neighbour out, so the collector reads them without the
  // --- mutex; everyone else, and every read of children, holds it. -------
  std::vector<StatePtr>& parents() { return parents_; }
  const std::vector<StatePtr>& parents() const { return parents_; }
  std::vector<StatePtr>& children() { return children_; }
  const std::vector<StatePtr>& children() const { return children_; }

  /// Number of children ever attached (1-based child indices are stable
  /// even after GC unlinks siblings).
  uint32_t child_slots() const { return child_slots_; }
  uint32_t AllocateChildSlot() { return ++child_slots_; }

  // --- transaction metadata ----------------------------------------------
  /// Write set of the transaction that created this state (own writes
  /// only — used by the Serializability/SI end constraints, replication,
  /// and GC dirty-key tracking).
  KeySet& write_set() { return write_set_; }
  const KeySet& write_set() const { return write_set_; }
  /// Keys written by compressed-away ancestors that this state absorbed
  /// during DAG compression (§6.3) — keeps findConflictWrites correct
  /// across garbage-collected chain interiors without polluting the
  /// validation write set.
  KeySet& inherited_writes() { return inherited_writes_; }
  const KeySet& inherited_writes() const { return inherited_writes_; }

  bool is_merge() const { return is_merge_; }
  void set_is_merge(bool v) { is_merge_ = v; }

  /// Exactly-once session tag of the commit that created this state
  /// (0/0 when untagged). Kept on the state so checkpoints rebuild the
  /// dedup table: a checkpoint snapshots the DAG, not the commit log.
  uint64_t session_id() const { return session_id_; }
  uint64_t session_seq() const { return session_seq_; }
  void set_session_tag(uint64_t id, uint64_t seq) {
    session_id_ = id;
    session_seq_ = seq;
  }

  // --- read-state pinning. Pins are taken under the DAG mutex, and the
  // --- collector rechecks them under it before it deletes a state. -------
  void PinAsReadState() { read_pins_.fetch_add(1, std::memory_order_relaxed); }
  void UnpinAsReadState() {
    read_pins_.fetch_sub(1, std::memory_order_relaxed);
  }
  int read_pins() const { return read_pins_.load(std::memory_order_relaxed); }

  // --- GC bookkeeping. Written by the collector only (marked and
  // --- safe_to_gc without the DAG mutex, deleted under it) and read
  // --- lock-free by Begin's BFS and by record pruning, hence atomic ------
  std::atomic<bool> marked{false};      ///< above a ceiling (pass 1)
  std::atomic<bool> safe_to_gc{false};  ///< pass 2
  std::atomic<bool> deleted{false};     ///< unlinked from the DAG

 private:
  const StateId id_;
  const GlobalStateId guid_;
  std::shared_ptr<const ForkPath> fork_path_ =
      std::make_shared<const ForkPath>();
  std::vector<StatePtr> parents_;
  std::vector<StatePtr> children_;
  uint32_t child_slots_ = 0;
  KeySet write_set_;
  KeySet inherited_writes_;
  bool is_merge_ = false;
  mutable SpinLock fork_path_mu_;  // guards fork_path_; fills padding here
  uint64_t session_id_ = 0;
  uint64_t session_seq_ = 0;
  std::atomic<int> read_pins_{0};
};

}  // namespace tardis

#endif  // TARDIS_CORE_STATE_H_
