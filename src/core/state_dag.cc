#include "core/state_dag.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <string_view>

#include "obs/trace.h"

namespace tardis {

namespace {
/// Every replica names the initial empty-database state identically so
/// that replicated transactions rooted at it resolve everywhere.
const GlobalStateId kRootGuid{0xFFFFFFFFu, 0};

/// One bitmask over the tips of a walk per row (a state or a key), rows
/// stored flat. Any number of tips; merges rarely name more than 64.
class TipMasks {
 public:
  explicit TipMasks(size_t tips) : words_((tips + 63) / 64) {}

  size_t AddRow() {
    bits_.resize(bits_.size() + words_, 0);
    return bits_.size() / words_ - 1;
  }
  void Set(size_t row, size_t tip) {
    bits_[row * words_ + tip / 64] |= uint64_t{1} << (tip % 64);
  }
  bool Test(size_t row, size_t tip) const {
    return (bits_[row * words_ + tip / 64] >> (tip % 64)) & 1;
  }
  void Or(size_t row, const TipMasks& from, size_t from_row) {
    for (size_t w = 0; w < words_; w++) {
      bits_[row * words_ + w] |= from.bits_[from_row * words_ + w];
    }
  }
  size_t Count(size_t row) const {
    size_t n = 0;
    for (size_t w = 0; w < words_; w++) {
      n += __builtin_popcountll(bits_[row * words_ + w]);
    }
    return n;
  }

 private:
  const size_t words_;
  std::vector<uint64_t> bits_;
};

/// Visits the ancestors-or-self of `tips` with ids >= `min_id` in
/// descending id order. Each state gets a row in `masks` holding the tips
/// it is reached from; `visit(state, row)` returns false to stop the walk.
/// Because every edge goes from a smaller id to a larger one, all of a
/// state's reached children are popped before it, so its mask is complete
/// when it is visited. Caller holds the DAG lock (the heap points into
/// parent vectors).
template <typename Visit>
void WalkFromTips(const std::vector<StatePtr>& tips, StateId min_id,
                  TipMasks* masks, Visit visit) {
  std::unordered_map<const State*, size_t> row_of;
  std::priority_queue<std::pair<StateId, const StatePtr*>> heap;
  auto row = [&](const StatePtr& s) {
    auto [it, fresh] = row_of.try_emplace(s.get(), 0);
    if (fresh) {
      it->second = masks->AddRow();
      heap.emplace(s->id(), &s);
    }
    return it->second;
  };
  for (size_t i = 0; i < tips.size(); i++) {
    if (tips[i]->id() >= min_id) masks->Set(row(tips[i]), i);
  }
  while (!heap.empty()) {
    const StatePtr& s = *heap.top().second;
    heap.pop();
    const size_t r = row_of[s.get()];
    if (!visit(s, r)) return;
    for (const StatePtr& p : s->parents()) {
      if (p->id() >= min_id) masks->Or(row(p), *masks, r);
    }
  }
}

/// The largest-id common ancestor of `tips` (the first state reached from
/// every tip), found by one descending-id walk that stops there. With
/// `pair_forks`, also fills the same answer for every pair i < j, in
/// (0,1), (0,2), ..., (1,2), ... order; a pair's fork is its first state
/// reached from both, which the walk reaches no later than the overall
/// one. Caller holds the DAG lock.
StatePtr ForkPointWalk(const std::vector<StatePtr>& tips,
                       std::vector<StatePtr>* pair_forks) {
  const size_t k = tips.size();
  if (k == 0) return nullptr;
  size_t pairs_left = 0;
  if (pair_forks != nullptr) {
    pairs_left = k * (k - 1) / 2;
    pair_forks->assign(pairs_left, nullptr);
  }
  TipMasks masks(k);
  std::vector<size_t> bits;
  StatePtr overall;
  WalkFromTips(tips, 0, &masks, [&](const StatePtr& s, size_t row) {
    const size_t reached = masks.Count(row);
    if (pairs_left > 0 && reached >= 2) {
      bits.clear();
      for (size_t i = 0; i < k; i++) {
        if (masks.Test(row, i)) bits.push_back(i);
      }
      for (size_t a = 0; a < bits.size(); a++) {
        for (size_t b = a + 1; b < bits.size(); b++) {
          const size_t i = bits[a], j = bits[b];
          StatePtr& slot = (*pair_forks)[i * (2 * k - i - 1) / 2 + j - i - 1];
          if (slot == nullptr) {
            slot = s;
            pairs_left--;
          }
        }
      }
    }
    if (reached < k) return true;
    overall = s;
    return false;
  });
  return overall;
}
}  // namespace

StateDag::StateDag(uint32_t site_id) : site_id_(site_id) {
  root_ = std::make_shared<State>(next_id_.fetch_add(1), kRootGuid);
  by_id_[root_->id()] = root_;
  by_guid_[kRootGuid] = root_;
  leaves_.insert(root_.get());
  UpdateCountsLocked();
}

bool StateDag::DescendantCheck(const State& writer, const State& reader) {
  // Figure 7, verbatim: id equality, id ordering, then fork-path subset.
  if (writer.id() == reader.id()) return true;
  if (writer.id() > reader.id()) return false;
  // The writer's path first: retroactive annotation rewrites descendants
  // before ancestors, so a writer path is never newer than a reader path
  // loaded after it. A "no" must also hold at one instant: the collector
  // may prune and retire a closed fork between the two loads, so it counts
  // only if the writer's path is still the one loaded (DESIGN.md §4b).
  auto wp = writer.fork_path();
  while (true) {
    const auto rp = reader.fork_path();
    if (wp == rp) return true;  // one branch segment shares one path object
    if (wp->SubsetOf(*rp)) return true;
    if (writer.fork_path_is(wp.get())) return false;
    wp = writer.fork_path();
  }
}

GlobalStateId StateDag::NextLocalGuid() {
  return GlobalStateId{site_id_, next_seq_.fetch_add(1) + 1};
}

StatePtr StateDag::CreateStateLocked(const std::vector<StatePtr>& parents,
                                     GlobalStateId guid, KeySet write_set,
                                     bool is_merge) {
  return CreateStateWithIdLocked(next_id_.fetch_add(1), parents, guid,
                                 std::move(write_set), is_merge);
}

StatePtr StateDag::CreateStateWithIdLocked(
    StateId id, const std::vector<StatePtr>& parents, GlobalStateId guid,
    KeySet write_set, bool is_merge) {
  assert(!parents.empty());
  // Keep the counters ahead of explicitly supplied ids (recovery).
  uint64_t expect = next_id_.load();
  while (expect <= id && !next_id_.compare_exchange_weak(expect, id + 1)) {
  }
  if (guid.site == site_id_) {
    uint64_t seq = next_seq_.load();
    while (seq < guid.seq && !next_seq_.compare_exchange_weak(seq, guid.seq)) {
    }
  }
  auto state = std::make_shared<State>(id, guid);
  state->write_set() = std::move(write_set);
  state->set_is_merge(is_merge);

  // Link under every parent first (running the retroactive fork
  // annotation where a parent just became a fork point), and only then
  // compute the new state's fork path from the parents' *updated* paths.
  // The order matters when a merge names both a state and one of its own
  // ancestors as parents: the ancestor's fork entry materializes during
  // linking and must flow into the union.
  std::vector<uint32_t> slots;
  slots.reserve(parents.size());
  for (const StatePtr& parent : parents) {
    assert(parent->id() < id && "edges must go from smaller to larger ids");
    const uint32_t slot = parent->AllocateChildSlot();
    slots.push_back(slot);
    if (slot == 2) {
      // The parent just became a fork point: retroactively annotate the
      // first child's subtree with (parent, 1). Runs under the commit
      // lock, before the new state is visible.
      if (!parent->children().empty()) {
        RetroactiveForkAnnotationLocked(parent->children()[0],
                                        ForkPoint{parent->id(), 1});
      }
    }
    parent->children().push_back(state);
    state->parents().push_back(parent);
    leaves_.erase(parent.get());
  }
  // A new path leaves the collector's closed forks out at once: it
  // rewrites only the states that existed when it published them. Outside
  // its pruning walk no live path names one, so a chain commit shares.
  std::shared_ptr<const ForkPath> first = parents[0]->fork_path();
  if (parents.size() == 1 && slots[0] == 1 &&
      !(pruning_ && first->Names(*closed_))) {
    // A plain chain commit: same branch, same fork path object.
    state->set_fork_path(std::move(first));
  } else {
    ForkPath path = *first;
    for (size_t i = 1; i < parents.size(); i++) {
      path.Union(*parents[i]->fork_path());
    }
    for (size_t i = 0; i < parents.size(); i++) {
      if (slots[i] >= 2) path.Add(ForkPoint{parents[i]->id(), slots[i]});
    }
    path.Prune(closed_);
    state->set_fork_path(std::make_shared<const ForkPath>(std::move(path)));
  }

  by_id_[state->id()] = state;
  by_guid_[state->guid()] = state;
  leaves_.insert(state.get());
  UpdateCountsLocked();
  return state;
}

void StateDag::RetroactiveForkAnnotationLocked(const StatePtr& first_child,
                                               ForkPoint entry) {
  // Adds `entry` to every fork path of the first child's subtree.
  // Subtrees below a fresh fork are typically tiny: conflicts are detected
  // within a handful of commits. States that shared a path object keep
  // sharing one: each distinct old path is rewritten once.
  std::vector<State*> subtree;
  std::unordered_set<State*> seen;
  std::vector<State*> work{first_child.get()};
  while (!work.empty()) {
    State* s = work.back();
    work.pop_back();
    if (!seen.insert(s).second) continue;
    subtree.push_back(s);
    for (const StatePtr& c : s->children()) work.push_back(c.get());
  }
  // Readers run Fig. 7 without the lock while the paths are swapped one
  // by one. Descendants first (every edge goes to a larger id): a reader
  // whose path is still old sees only old paths above it, and a reader
  // whose path is new sees a superset of every ancestor's, so no version
  // it can see is hidden mid-rewrite.
  std::sort(subtree.begin(), subtree.end(),
            [](const State* a, const State* b) { return a->id() > b->id(); });
  struct Rewrite {
    std::shared_ptr<const ForkPath> old_path;  // pins the memo key
    std::shared_ptr<const ForkPath> new_path;
  };
  std::unordered_map<const ForkPath*, Rewrite> rewritten;
  for (State* s : subtree) {
    std::shared_ptr<const ForkPath> old_path = s->fork_path();
    Rewrite& r = rewritten[old_path.get()];
    if (r.new_path == nullptr) {
      ForkPath updated = *old_path;
      updated.Add(entry);
      r.new_path = std::make_shared<const ForkPath>(std::move(updated));
      r.old_path = std::move(old_path);
    }
    s->set_fork_path(r.new_path);
  }
}

std::vector<StatePtr> StateDag::Leaves() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<StatePtr> out;
  out.reserve(leaves_.size());
  for (State* leaf : leaves_) {
    auto it = by_id_.find(leaf->id());
    if (it != by_id_.end()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end(),
            [](const StatePtr& a, const StatePtr& b) {
              return a->id() > b->id();
            });
  return out;
}

StatePtr StateDag::ResolveLocked(StateId id) const {
  // Under the commit lock every promotion chain ends at a live state:
  // DeleteStateLocked records victim -> heir while the heir is live.
  auto it = by_id_.find(id);
  if (it == by_id_.end()) it = by_id_.find(ResolvePromotedId(id));
  return it == by_id_.end() ? nullptr : it->second;
}

StateId StateDag::ResolvePromotedId(StateId id) const {
  std::lock_guard<std::mutex> promo_guard(promo_mu_);
  StateId cur = id;
  visited_scratch_.clear();
  for (int hops = 0; hops < 1 << 20; hops++) {  // cycle guard
    auto promoted = promoted_.find(cur);
    if (promoted == promoted_.end()) {
      // Union-find path compression: repoint every entry on the walked
      // chain at its end, so chains stay O(1) no matter how many GC
      // rounds splice them.
      for (StateId hop : visited_scratch_) promoted_[hop] = cur;
      return cur;
    }
    visited_scratch_.push_back(cur);
    cur = promoted->second;
  }
  return kInvalidStateId;
}

StatePtr StateDag::Resolve(StateId id) const {
  std::lock_guard<std::mutex> guard(mu_);
  return ResolveLocked(id);
}

StatePtr StateDag::ResolveGuidLocked(const GlobalStateId& guid) const {
  auto it = by_guid_.find(guid);
  return it == by_guid_.end() ? nullptr : it->second;
}

StatePtr StateDag::ResolveGuid(const GlobalStateId& guid) const {
  std::lock_guard<std::mutex> guard(mu_);
  return ResolveGuidLocked(guid);
}

StatePtr StateDag::BfsFromLeaves(
    const std::function<bool(const StatePtr&)>& visit) const {
  TARDIS_TRACE_SCOPE("dag", "bfs_from_leaves");
  // Most-recent-first traversal: a max-heap on state id approximates the
  // "breadth-first search through the State DAG from its leaves up" of
  // §6.1.1 while guaranteeing we offer more recent states before their
  // ancestors.
  auto cmp = [](const StatePtr& a, const StatePtr& b) {
    return a->id() < b->id();
  };
  std::priority_queue<StatePtr, std::vector<StatePtr>, decltype(cmp)> heap(
      cmp);
  std::unordered_set<State*> seen;

  for (const StatePtr& leaf : Leaves()) {
    if (seen.insert(leaf.get()).second) heap.push(leaf);
  }
  while (!heap.empty()) {
    StatePtr s = heap.top();
    heap.pop();
    if (visit(s)) return s;
    std::lock_guard<std::mutex> guard(mu_);
    for (const StatePtr& p : s->parents()) {
      if (p->deleted) continue;
      if (seen.insert(p.get()).second) heap.push(p);
    }
  }
  return nullptr;
}

StatePtr StateDag::FindForkPoint(const std::vector<StatePtr>& states) const {
  if (states.empty()) return nullptr;
  if (states.size() == 1) return states[0];
  std::lock_guard<std::mutex> guard(mu_);
  return ForkPointWalk(states, nullptr);
}

std::vector<StatePtr> StateDag::FindForkPoints(
    const std::vector<StatePtr>& states) const {
  TARDIS_TRACE_SCOPE("dag", "find_fork_points");
  std::vector<StatePtr> out;
  if (states.empty()) return out;
  if (states.size() == 1) return {states[0]};
  std::vector<StatePtr> pair_forks;
  StatePtr overall;
  {
    std::lock_guard<std::mutex> guard(mu_);
    overall = ForkPointWalk(states, &pair_forks);
  }
  std::unordered_set<State*> seen;
  for (StatePtr& fork : pair_forks) {
    if (fork != nullptr && seen.insert(fork.get()).second) {
      out.push_back(std::move(fork));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StatePtr& a, const StatePtr& b) {
              return a->id() > b->id();
            });
  // The overall (shallowest) fork point leads, matching the paper's
  // examples that take `.first` as *the* fork point of the merge: it is
  // the unique point from which every branch is reachable.
  if (overall != nullptr) {
    auto it = std::find(out.begin(), out.end(), overall);
    if (it != out.end()) out.erase(it);
    out.insert(out.begin(), std::move(overall));
  }
  return out;
}

std::string StateDag::DebugString() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::string out;
  std::vector<StatePtr> states;
  states.reserve(by_id_.size());
  for (const auto& [id, s] : by_id_) states.push_back(s);
  std::sort(states.begin(), states.end(),
            [](const StatePtr& a, const StatePtr& b) {
              return a->id() < b->id();
            });
  for (const StatePtr& s : states) {
    out += "state " + std::to_string(s->id()) + " guid=" +
           s->guid().ToString();
    out += " parents=[";
    for (size_t i = 0; i < s->parents().size(); i++) {
      if (i) out += ",";
      out += std::to_string(s->parents()[i]->id());
    }
    out += "] path=" + s->fork_path()->ToString();
    if (s->is_merge()) out += " MERGE";
    if (s->children().empty()) out += " LEAF";
    if (s->marked.load()) out += " marked";
    if (!s->write_set().empty()) {
      out += " writes={";
      for (size_t i = 0; i < s->write_set().keys().size(); i++) {
        if (i) out += ",";
        out += s->write_set().keys()[i];
      }
      out += "}";
    }
    out += "\n";
  }
  out += "promotion table: " + std::to_string(promotion_table_size()) +
         " entries\n";
  return out;
}

std::string StateDag::ToDot() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::string out = "digraph tardis {\n  rankdir=TB;\n";
  for (const auto& [id, s] : by_id_) {
    out += "  s" + std::to_string(id) + " [label=\"" + std::to_string(id);
    if (s->is_merge()) out += "\\nmerge";
    out += "\"";
    if (s->children().empty()) out += ", style=bold";
    out += "];\n";
    for (const StatePtr& c : s->children()) {
      out += "  s" + std::to_string(id) + " -> s" +
             std::to_string(c->id()) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

KeySet StateDag::FindConflictWrites(const StatePtr& fork,
                                    const std::vector<StatePtr>& tips) const {
  TARDIS_TRACE_SCOPE("dag", "find_conflict_writes");
  // One walk below the fork: each state's own and inherited writes are
  // charged to every tip it is reached from, and a key charged to >= 2
  // tips is in conflict.
  std::lock_guard<std::mutex> guard(mu_);
  TipMasks state_masks(tips.size());
  TipMasks key_masks(tips.size());
  std::unordered_map<std::string_view, size_t> key_row;
  WalkFromTips(tips, fork->id() + 1, &state_masks,
               [&](const StatePtr& s, size_t row) {
                 for (const KeySet* keys :
                      {&s->write_set(), &s->inherited_writes()}) {
                   for (const std::string& k : keys->keys()) {
                     auto [it, fresh] = key_row.try_emplace(k, 0);
                     if (fresh) it->second = key_masks.AddRow();
                     key_masks.Or(it->second, state_masks, row);
                   }
                 }
                 return true;
               });
  std::vector<std::string> conflicts;
  for (const auto& [key, row] : key_row) {
    if (key_masks.Count(row) >= 2) conflicts.emplace_back(key);
  }
  std::sort(conflicts.begin(), conflicts.end());
  KeySet out;
  for (std::string& k : conflicts) out.Add(std::move(k));
  return out;
}

void StateDag::DeleteStateLocked(const StatePtr& victim,
                                 const StatePtr& heir) {
  assert(victim && heir);
  // Unlink the victim and splice the heir in its place so the compressed
  // DAG stays connected (Fig. 8: the child takes over the identity of its
  // parent).
  for (const StatePtr& c : victim->children()) {
    auto& up = c->parents();
    up.erase(std::remove(up.begin(), up.end(), victim), up.end());
    if (c != heir) {
      assert(heir->id() < c->id() && "splice would invert an edge");
      up.push_back(heir);
      heir->children().push_back(c);
    }
  }
  for (const StatePtr& p : victim->parents()) {
    auto& siblings = p->children();
    siblings.erase(std::remove(siblings.begin(), siblings.end(), victim),
                   siblings.end());
    if (std::find(siblings.begin(), siblings.end(), heir) ==
        siblings.end()) {
      siblings.push_back(heir);
      heir->parents().push_back(p);
    }
  }
  victim->children().clear();
  victim->parents().clear();
  victim->deleted = true;

  // Record the promotion target: the heir takes over the victim's
  // identity (Fig. 8's Promote table). Write-set inheritance is the
  // caller's job (the GC batches it per surviving heir — chain-at-a-time
  // unions here would be quadratic in the chain length).
  {
    std::lock_guard<std::mutex> promo_guard(promo_mu_);
    promoted_[victim->id()] = heir->id();
  }

  by_id_.erase(victim->id());
  by_guid_.erase(victim->guid());
  leaves_.erase(victim.get());
  UpdateCountsLocked();
}

size_t StateDag::DropRedundantEdgesLocked(const StatePtr& s) {
  // An edge s -> c is redundant when another parent p of c descends from
  // s: c stays reachable through p. The child with the smallest id is never
  // dropped (its witness p would sit between s and it), so s keeps one.
  size_t dropped = 0;
  auto& children = s->children();
  for (size_t i = 0; i < children.size() && children.size() > 1;) {
    StatePtr c = children[i];
    auto& up = c->parents();
    const bool redundant =
        std::any_of(up.begin(), up.end(), [&](const StatePtr& p) {
          return p != s && DescendantCheck(*s, *p);
        });
    if (!redundant) {
      i++;
      continue;
    }
    up.erase(std::find(up.begin(), up.end(), s));
    children.erase(children.begin() + i);
    dropped++;
  }
  return dropped;
}

size_t StateDag::MaxLeafPathLength() const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t longest = 0;
  for (const State* leaf : leaves_) {
    longest = std::max(longest, leaf->fork_path()->size());
  }
  return longest;
}

std::vector<StatePtr> StateDag::AllStatesLocked() const {
  std::vector<StatePtr> out;
  out.reserve(by_id_.size());
  for (const auto& [id, state] : by_id_) out.push_back(state);
  std::sort(out.begin(), out.end(),
            [](const StatePtr& a, const StatePtr& b) {
              return a->id() < b->id();
            });
  return out;
}

void StateDag::ReservePromotions(size_t n) {
  std::lock_guard<std::mutex> guard(promo_mu_);
  const size_t need = promoted_.size() + n;
  if (need > promoted_.bucket_count() * promoted_.max_load_factor()) {
    promoted_.reserve(2 * need);  // doubling keeps the rehashes amortized
  }
}

size_t StateDag::promotion_table_size() const {
  std::lock_guard<std::mutex> guard(promo_mu_);
  return promoted_.size();
}

}  // namespace tardis
