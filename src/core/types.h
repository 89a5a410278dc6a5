// Core value types of the TARDiS consistency layer: state identifiers,
// fork points and fork paths (§6.1.3).
//
// A *fork point* is a tuple (i, b): "the current state is a descendant of
// the b-th child of state i". A branch is summarized by its set of fork
// points — its *fork path*. Record-version visibility reduces to the
// subset test of Figure 7, instead of the per-object dependency tracking
// that bottlenecks causally consistent systems.

#ifndef TARDIS_CORE_TYPES_H_
#define TARDIS_CORE_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace tardis {

/// Site-local, monotonically increasing state identifier. Along any branch
/// a child's id is strictly greater than its parents' (ids are drawn after
/// the parent exists), which descendantCheck (Fig. 7) relies on.
using StateId = uint64_t;
constexpr StateId kInvalidStateId = ~0ull;

/// Replication-wide state identity: (origin site, per-site sequence).
/// The same logical state carries the same GlobalStateId at every replica
/// ("StateID replication", §7.2.1) while local ids stay site-monotone.
struct GlobalStateId {
  uint32_t site = 0;
  uint64_t seq = 0;

  bool operator==(const GlobalStateId& o) const {
    return site == o.site && seq == o.seq;
  }
  bool operator<(const GlobalStateId& o) const {
    return site != o.site ? site < o.site : seq < o.seq;
  }
  std::string ToString() const {
    return std::to_string(site) + ":" + std::to_string(seq);
  }
};

struct GlobalStateIdHash {
  size_t operator()(const GlobalStateId& g) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(g.site) << 48) ^
                                 g.seq);
  }
};

/// (i, b): descendant of the b-th child (1-based, matching the paper's
/// Figure 5) of state i.
struct ForkPoint {
  StateId state = kInvalidStateId;
  uint32_t child = 0;

  bool operator==(const ForkPoint& o) const {
    return state == o.state && child == o.child;
  }
  bool operator<(const ForkPoint& o) const {
    return state != o.state ? state < o.state : child < o.child;
  }
};

/// Sorted ids of *closed* fork points: forks the garbage collector has
/// deleted and whose every branch its live heir descends from. Their
/// entries can leave every fork path without changing a Fig. 7 answer
/// (DESIGN.md §4b). Immutable and shared between paths.
using ClosedForks = std::vector<StateId>;

/// A branch summary: sorted set of fork points. Paths are immutable once
/// published and shared between states (a plain chain commit reuses its
/// parent's object), and are stored at exact size: every merge unions
/// its parents' paths, so paths grow with the branch history and slack
/// capacity would be paid once per distinct path.
///
/// A path the collector pruned keeps the closed forks it was pruned of:
/// until the collector has rewritten every path and retired them, a
/// writer's path can still name a fork this (reader) path no longer does.
class ForkPath {
 public:
  ForkPath() = default;

  /// Inserts a fork point, keeping the set sorted, unique and exact-size.
  void Add(const ForkPoint& fp) {
    auto it = std::lower_bound(points_.begin(), points_.end(), fp);
    if (it != points_.end() && *it == fp) return;
    const size_t at = it - points_.begin();
    points_.reserve(points_.size() + 1);  // one slot, not a doubling
    points_.insert(points_.begin() + at, fp);
  }

  /// Set union (used for merge states, whose path is the union of their
  /// parents' paths), exact-size.
  void Union(const ForkPath& other) {
    size_t n = 0;
    auto a = points_.begin();
    auto b = other.points_.begin();
    while (a != points_.end() && b != other.points_.end()) {
      n++;
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        ++a;
        ++b;
      }
    }
    n += (points_.end() - a) + (other.points_.end() - b);
    if (n == points_.size()) return;  // other adds nothing
    std::vector<ForkPoint> merged;
    merged.reserve(n);
    std::set_union(points_.begin(), points_.end(), other.points_.begin(),
                   other.points_.end(), std::back_inserter(merged));
    points_ = std::move(merged);
  }

  /// True iff every fork point of *this (a writer's path) appears in
  /// `reader` — the "x.path ⊆ y.path" test of Figure 7 — where an entry of
  /// a fork `reader` was pruned of counts as present. Linear in the path
  /// lengths. No early-out on sizes: a longer writer path can still pass.
  bool SubsetOf(const ForkPath& reader) const {
    auto r = reader.points_.begin();
    const auto end = reader.points_.end();
    for (const ForkPoint& w : points_) {
      while (r != end && *r < w) ++r;
      if (r != end && *r == w) {
        ++r;
        continue;
      }
      if (reader.closed_ == nullptr ||
          !std::binary_search(reader.closed_->begin(), reader.closed_->end(),
                              w.state)) {
        return false;
      }
    }
    return true;
  }

  /// True iff some entry names a fork in `closed` (sorted).
  bool Names(const ClosedForks& closed) const {
    auto c = closed.begin();
    for (const ForkPoint& p : points_) {
      while (c != closed.end() && *c < p.state) ++c;
      if (c == closed.end()) return false;
      if (*c == p.state) return true;
    }
    return false;
  }

  /// Drops every entry of a fork in `closed` (null: none) and remembers
  /// `closed` as the forks this path was pruned of. Exact-size.
  void Prune(std::shared_ptr<const ClosedForks> closed) {
    if (closed != nullptr && Names(*closed)) {
      auto named = [&](const ForkPoint& p) {
        return std::binary_search(closed->begin(), closed->end(), p.state);
      };
      std::vector<ForkPoint> kept;
      kept.reserve(points_.size() -
                   std::count_if(points_.begin(), points_.end(), named));
      std::remove_copy_if(points_.begin(), points_.end(),
                          std::back_inserter(kept), named);
      points_ = std::move(kept);
    }
    closed_ = std::move(closed);
  }

  /// True iff the path holds (fork, 1) ... (fork, slots): it descends from
  /// every branch of `fork`.
  bool HoldsEveryBranch(StateId fork, uint32_t slots) const {
    auto it = std::lower_bound(points_.begin(), points_.end(),
                               ForkPoint{fork, 1});
    for (uint32_t b = 1; b <= slots; b++, ++it) {
      if (it == points_.end() || !(*it == ForkPoint{fork, b})) return false;
    }
    return true;
  }

  /// Entries only; the closed forks a path was pruned of do not count.
  bool operator==(const ForkPath& o) const { return points_ == o.points_; }

  size_t size() const { return points_.size(); }
  size_t capacity() const { return points_.capacity(); }
  bool empty() const { return points_.empty(); }
  const std::vector<ForkPoint>& points() const { return points_; }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < points_.size(); i++) {
      if (i) out += ",";
      out += "(" + std::to_string(points_[i].state) + "," +
             std::to_string(points_[i].child) + ")";
    }
    out += "}";
    return out;
  }

 private:
  std::vector<ForkPoint> points_;
  std::shared_ptr<const ClosedForks> closed_;  // pruned of; null: none
};

/// Sorted, de-duplicated key set; read/write sets of transactions and the
/// write sets stored with DAG states (needed by the Serializability and
/// Snapshot Isolation end constraints and by findConflictWrites).
class KeySet {
 public:
  KeySet() = default;
  /// Adopts `sorted`, which must be sorted and free of duplicates.
  explicit KeySet(std::vector<std::string> sorted)
      : keys_(std::move(sorted)) {}

  void Add(const std::string& key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) return;
    keys_.insert(it, key);
  }

  bool Contains(const std::string& key) const {
    return std::binary_search(keys_.begin(), keys_.end(), key);
  }

  /// True iff the two sorted sets share any key.
  bool Intersects(const KeySet& other) const {
    auto a = keys_.begin();
    auto b = other.keys_.begin();
    while (a != keys_.end() && b != other.keys_.end()) {
      const int c = a->compare(*b);
      if (c == 0) return true;
      if (c < 0) ++a;
      else ++b;
    }
    return false;
  }

  void Union(const KeySet& other) {
    std::vector<std::string> merged;
    merged.reserve(keys_.size() + other.keys_.size());
    std::set_union(keys_.begin(), keys_.end(), other.keys_.begin(),
                   other.keys_.end(), std::back_inserter(merged));
    keys_ = std::move(merged);
  }

  void Clear() { keys_.clear(); }
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  const std::vector<std::string>& keys() const { return keys_; }

 private:
  std::vector<std::string> keys_;
};

}  // namespace tardis

#endif  // TARDIS_CORE_TYPES_H_
