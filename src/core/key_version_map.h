// KeyVersionMap: the in-memory mapping from user keys to the
// topologically ordered list of record versions (§6.1.3–6.1.4).
//
// Each key owns a concurrent skip list of version entries sorted by
// *descending* state id. Because state ids increase monotonically along
// every branch, descending id order is a topological order of the true
// version DAG, and the first entry that passes the fork-path descendant
// check is the most recent version visible on the reader's branch.
//
// Values are kept inline (shared_ptr) so reads never touch the record
// B-Tree in the steady state; after recovery, entries may carry a null
// value and the store lazily reloads it from the record store.

#ifndef TARDIS_CORE_KEY_VERSION_MAP_H_
#define TARDIS_CORE_KEY_VERSION_MAP_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/state.h"
#include "core/state_dag.h"
#include "core/types.h"
#include "storage/skiplist.h"
#include "util/slice.h"
#include "util/status.h"

namespace tardis {

struct VersionEntry {
  StateId sid = kInvalidStateId;
  StatePtr state;
  std::shared_ptr<const std::string> value;
};

class KeyVersionMap {
 public:
  KeyVersionMap() = default;
  KeyVersionMap(const KeyVersionMap&) = delete;
  KeyVersionMap& operator=(const KeyVersionMap&) = delete;

  /// Registers a new version of `key` created by `state`. Insertion keeps
  /// the per-key list topologically sorted regardless of caller timing.
  /// Returns false if a version for this state already exists.
  bool AddVersion(const Slice& key, const StatePtr& state,
                  std::shared_ptr<const std::string> value);

  /// Most recent version of `key` visible from `read_state` (Fig. 7 check
  /// per entry). Status::NotFound if the key has no visible version.
  StatusOr<VersionEntry> GetVisible(const Slice& key,
                                    const State& read_state) const;

  /// The version of `key` written by state `sid` itself. Status::NotFound
  /// if there is none.
  StatusOr<VersionEntry> Get(const Slice& key, StateId sid) const;

  /// All live versions of `key`, most recent first (GC and diagnostics).
  std::vector<VersionEntry> Versions(const Slice& key) const;

  /// Calls `fn` on every version of `key`, most recent first, without
  /// copying the entries. `fn` must not call back into the map.
  void ForEachVersion(const Slice& key,
                      const std::function<void(const VersionEntry&)>& fn) const;

  /// Removes the version of `key` tagged with `sid`. Returns false if no
  /// such version exists.
  bool RemoveVersion(const Slice& key, StateId sid);

  /// Iterates over every key (snapshot of the key set; version lists are
  /// read live). Used by the record-pruning GC pass.
  void ForEachKey(const std::function<void(const std::string&)>& fn) const;

  /// Reclaims retired skip-list nodes for all keys. Internally takes the
  /// reclamation gate exclusively, so it is safe to call at any time; all
  /// other methods hold the gate shared while touching version lists.
  void DrainRetired();

  size_t key_count() const;
  /// Total live versions across all keys (Fig. 13's "records" series).
  size_t version_count() const;

 private:
  struct DescendingBySid {
    int operator()(const VersionEntry& a, const VersionEntry& b) const {
      if (a.sid > b.sid) return -1;
      if (a.sid < b.sid) return +1;
      return 0;
    }
  };
  using VersionList = SkipList<VersionEntry, DescendingBySid>;

  VersionList* GetList(const Slice& key) const;
  VersionList* GetOrCreateList(const Slice& key);

  mutable std::shared_mutex map_mu_;  // guards the map structure only
  /// Reclamation gate: held shared by every method that touches a version
  /// list, exclusively by DrainRetired — retired nodes are freed only when
  /// no other thread can hold a pointer into a list.
  mutable std::shared_mutex gate_;
  std::unordered_map<std::string, std::unique_ptr<VersionList>> map_;
};

}  // namespace tardis

#endif  // TARDIS_CORE_KEY_VERSION_MAP_H_
