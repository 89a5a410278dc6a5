#include "core/gc.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

#include "core/record_codec.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace tardis {

namespace {
/// Most candidates one pass-3 batch visits, so the most victims one
/// commit-lock hold unlinks. An unlink costs about a microsecond, which
/// keeps every hold well under a millisecond.
constexpr size_t kDeleteBatch = 128;
/// Most states one path-pruning hold visits. A visit costs a few cache
/// misses; 16 keep this hold's p99 near a pass-3 planning hold's
/// (~0.1 ms on branch-merge, where 64 gave ~0.4 ms).
constexpr size_t kPruneBatch = 16;
/// The collector retires its closed forks once this many accumulate, or
/// after this many cycles: retiring walks every version of every key.
constexpr size_t kRetireAt = 512;
constexpr int kRetireEvery = 8;
/// Plans of one batch before it is left to the next cycle. A plan goes
/// stale only when a commit adds a child to a victim, or a reader pins
/// one, between the planning hold and the unlinking hold.
constexpr int kBatchAttempts = 4;
}  // namespace

/// One hold of the commit lock, observed into a tardis_gc_lock_hold_us
/// series and the cycle's maximum once the lock is released.
class GarbageCollector::TimedHold {
 public:
  TimedHold(GarbageCollector* gc, obs::HistogramMetric* hist)
      : gc_(gc), hist_(hist), lock_(gc->dag_->Lock()), start_(NowMicros()) {}
  ~TimedHold() {
    const uint64_t us = NowMicros() - start_;
    lock_.unlock();
    hist_->Observe(us);
    gc_->max_hold_us_ = std::max(gc_->max_hold_us_, us);
  }
  TimedHold(const TimedHold&) = delete;
  TimedHold& operator=(const TimedHold&) = delete;

 private:
  GarbageCollector* const gc_;
  obs::HistogramMetric* const hist_;
  std::unique_lock<std::mutex> lock_;
  const uint64_t start_;
};

GarbageCollector::GarbageCollector(StateDag* dag, KeyVersionMap* kvmap,
                                   RecordStore* record_store,
                                   obs::MetricsRegistry* registry)
    : dag_(dag), kvmap_(kvmap), record_store_(record_store) {
  if (registry == nullptr) {
    own_registry_ = std::make_shared<obs::MetricsRegistry>();
    registry = own_registry_.get();
  }
  const obs::LabelSet site{{"site", std::to_string(dag_->site_id())}};
  runs_total_ = registry->RegisterCounter(
      "tardis_gc_runs_total", "Completed garbage collection cycles", site);
  states_marked_total_ = registry->RegisterCounter(
      "tardis_gc_states_marked_total",
      "DAG states marked below a ceiling (pass 1)", site);
  states_deleted_total_ = registry->RegisterCounter(
      "tardis_gc_states_deleted_total",
      "DAG states compressed away (pass 3)", site);
  versions_promoted_total_ = registry->RegisterCounter(
      "tardis_gc_versions_promoted_total",
      "Record versions retained as chain survivors", site);
  versions_pruned_total_ = registry->RegisterCounter(
      "tardis_gc_versions_pruned_total",
      "Record versions removed from the version map and store", site);
  edges_dropped_total_ = registry->RegisterCounter(
      "tardis_gc_edges_dropped_total",
      "Redundant fork-point edges dropped before compression (pass 3)", site);
  forks_closed_total_ = registry->RegisterCounter(
      "tardis_gc_forks_closed_total",
      "Deleted fork points whose entries left every fork path", site);
  pass_duration_us_ = registry->RegisterHistogram(
      "tardis_gc_pass_duration_us",
      "Wall time of one full GC cycle, microseconds", site);
  const char* const kPhaseHelp =
      "Wall time of one GC phase in one cycle, microseconds";
  // Passes 1 and 2 and record promotion take no commit lock, so the hold
  // phases are pass 3's two holds per batch and path pruning's holds.
  const char* const kHoldHelp =
      "One garbage-collector hold of the commit lock, microseconds";
  auto labelled = [&](const char* name, const char* help, const char* ph) {
    obs::LabelSet labels = site;
    labels.emplace_back("phase", ph);
    return registry->RegisterHistogram(name, help, labels);
  };
  phase_compress_us_ = labelled("tardis_gc_phase_us", kPhaseHelp, "compress");
  phase_promote_us_ = labelled("tardis_gc_phase_us", kPhaseHelp, "promote");
  phase_prune_us_ = labelled("tardis_gc_phase_us", kPhaseHelp, "prune");
  hold_compress_us_ =
      labelled("tardis_gc_lock_hold_us", kHoldHelp, "compress");
  hold_delete_us_ = labelled("tardis_gc_lock_hold_us", kHoldHelp, "delete");
  hold_prune_us_ = labelled("tardis_gc_lock_hold_us", kHoldHelp, "prune");
}

GarbageCollector::~GarbageCollector() { StopBackground(); }

void GarbageCollector::PlaceCeiling(const StatePtr& ceiling) {
  if (ceiling == nullptr) return;
  std::lock_guard<std::mutex> guard(ceilings_mu_);
  pending_ceilings_.push_back(ceiling);
}

GcStats GarbageCollector::RunOnce() {
  // One collection cycle at a time: a manual RunOnce may race the
  // background thread, and the passes share dirty_keys_ and the
  // safe-to-gc markings.
  std::lock_guard<std::mutex> run_guard(run_mu_);
  TARDIS_TRACE_SCOPE("gc", "run");
  GcStats stats;
  stats.runs = 1;
  static const bool trace = getenv("TARDIS_GC_TRACE") != nullptr;
  max_hold_us_ = 0;
  const uint64_t t0 = NowMicros();
  DagCompressionPass(&stats);
  const uint64_t t1 = NowMicros();
  RecordPromotionPass(&stats);
  const uint64_t t2 = NowMicros();
  ForkPathPass(&stats);
  const uint64_t t3 = NowMicros();
  if (trace) {
    fprintf(stderr,
            "[gc] compress=%lluus promote=%lluus prune=%lluus deleted=%llu "
            "dropped=%llu closed=%llu pruned=%llu kept=%llu "
            "max_hold=%lluus\n",
            (unsigned long long)(t1 - t0), (unsigned long long)(t2 - t1),
            (unsigned long long)(t3 - t2),
            (unsigned long long)stats.states_deleted,
            (unsigned long long)stats.edges_dropped,
            (unsigned long long)stats.forks_closed,
            (unsigned long long)stats.versions_pruned,
            (unsigned long long)stats.versions_promoted,
            (unsigned long long)max_hold_us_);
  }
  runs_total_->Increment();
  states_marked_total_->Increment(stats.states_marked);
  states_deleted_total_->Increment(stats.states_deleted);
  versions_promoted_total_->Increment(stats.versions_promoted);
  versions_pruned_total_->Increment(stats.versions_pruned);
  edges_dropped_total_->Increment(stats.edges_dropped);
  forks_closed_total_->Increment(stats.forks_closed);
  phase_compress_us_->Observe(t1 - t0);
  phase_promote_us_->Observe(t2 - t1);
  phase_prune_us_->Observe(t3 - t2);
  pass_duration_us_->Observe(t3 - t0);
  return stats;
}

void GarbageCollector::DagCompressionPass(GcStats* stats) {
  TARDIS_TRACE_SCOPE("gc", "compress");
  std::vector<StatePtr> ceilings;
  {
    std::lock_guard<std::mutex> guard(ceilings_mu_);
    ceilings.swap(pending_ceilings_);
  }

  // Pass 1 (bottom-up): mark every proper ancestor of each ceiling. A
  // marked state's ancestors are already marked (invariant of this pass),
  // so the walk stops at the first marked state — each state is marked
  // exactly once over the store's lifetime, no matter how many ceilings
  // accumulate above it. No commit lock: parents() changes only when a
  // state is created and in this collector's pass 3 (state_dag.h), and a
  // read pin taken meanwhile is rechecked under the lock before any
  // deletion.
  for (const StatePtr& ceiling : ceilings) {
    std::vector<StatePtr> work(ceiling->parents().begin(),
                               ceiling->parents().end());
    while (!work.empty()) {
      StatePtr s = std::move(work.back());
      work.pop_back();
      if (s->marked.exchange(true)) continue;  // subtree already done
      stats->states_marked++;
      work.insert(work.end(), s->parents().begin(), s->parents().end());
      marked_live_.push_back(std::move(s));
    }
  }

  // Pass 2 (top-down, id order = topological): safe-to-gc iff marked, not
  // pinned as a read state, and all surviving parents are safe-to-gc. The
  // parents of a marked state are marked, so the marked states still in
  // the DAG are all this pass needs to visit.
  std::sort(marked_live_.begin(), marked_live_.end(),
            [](const StatePtr& a, const StatePtr& b) {
              return a->id() < b->id();
            });
  for (const StatePtr& s : marked_live_) {
    if (s->read_pins() > 0) {
      s->safe_to_gc = false;
      continue;
    }
    bool parents_safe = true;
    for (const StatePtr& p : s->parents()) {
      if (!p->safe_to_gc.load()) {
        parents_safe = false;
        break;
      }
    }
    s->safe_to_gc = parents_safe;
  }

  // Pass 3: delete safe states that are not fork points, promoting each
  // to its surviving child, in batches in descending id order. A safe
  // fork point first loses its redundant edges, so one whose branches a
  // merge reconciled is no fork point any more. Keep the root: every
  // surviving state stays attached to it.
  std::vector<StatePtr> batch;
  for (auto it = marked_live_.rbegin(); it != marked_live_.rend(); ++it) {
    if (!(*it)->safe_to_gc.load() || (*it)->parents().empty()) continue;
    batch.push_back(*it);
    if (batch.size() == kDeleteBatch) {
      DeleteBatch(batch, stats);
      batch.clear();
    }
  }
  if (!batch.empty()) DeleteBatch(batch, stats);
  // Outside the lock, so a victim's last reference never drops under it.
  marked_live_.erase(
      std::remove_if(marked_live_.begin(), marked_live_.end(),
                     [](const StatePtr& s) { return s->deleted.load(); }),
      marked_live_.end());
}

void GarbageCollector::DeleteBatch(const std::vector<StatePtr>& batch,
                                   GcStats* stats) {
  struct Victim {
    StatePtr state;
    StatePtr child;  // its only child when planned
    StatePtr heir;   // the survivor that takes over its identity
  };
  for (int attempt = 0; attempt < kBatchAttempts; attempt++) {
    std::vector<Victim> victims;
    {
      TimedHold hold(this, hold_compress_us_);
      for (const StatePtr& s : batch) {
        if (s->read_pins() > 0) continue;
        // s is safe to gc: it and its ancestors are marked and unpinned,
        // so no read state and no ripple-down commit reaches it, and a
        // dropped edge changes no answer (DESIGN.md §4b).
        if (s->children().size() > 1) {
          stats->edges_dropped += dag_->DropRedundantEdgesLocked(s);
        }
        if (s->children().size() != 1) continue;  // fork point or leaf
        victims.push_back(Victim{s, s->children()[0], nullptr});
      }
    }
    if (victims.empty()) return;

    // In descending id order a victim's child is either a survivor or a
    // victim already given its heir, so every heir is a survivor.
    std::unordered_map<const State*, StatePtr> heir_of;
    for (Victim& v : victims) {
      auto it = heir_of.find(v.child.get());
      v.heir = it == heir_of.end() ? v.child : it->second;
      heir_of.emplace(v.state.get(), v.heir);
    }
    // Each heir's new inherited writes: its own plus every victim's own and
    // inherited writes. Built without the lock: only the collector writes
    // inherited_writes(), and the union with the existing set is one
    // linear merge per heir.
    std::unordered_map<State*, std::vector<std::string>> added;
    for (const Victim& v : victims) {
      std::vector<std::string>& keys = added[v.heir.get()];
      for (const KeySet* ks :
           {&v.state->write_set(), &v.state->inherited_writes()}) {
        keys.insert(keys.end(), ks->keys().begin(), ks->keys().end());
      }
    }
    std::vector<std::pair<State*, KeySet>> unions;
    unions.reserve(added.size());
    for (auto& [heir, keys] : added) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      const std::vector<std::string>& have = heir->inherited_writes().keys();
      std::vector<std::string> merged;
      merged.reserve(have.size() + keys.size());
      std::set_union(have.begin(), have.end(),
                     std::make_move_iterator(keys.begin()),
                     std::make_move_iterator(keys.end()),
                     std::back_inserter(merged));
      unions.emplace_back(heir, KeySet(std::move(merged)));
    }

    dag_->ReservePromotions(victims.size());

    bool unchanged = true;
    {
      TimedHold hold(this, hold_delete_us_);
      for (const Victim& v : victims) {
        if (v.state->read_pins() > 0 || v.state->children().size() != 1 ||
            v.state->children()[0] != v.child) {
          unchanged = false;
          break;
        }
      }
      if (unchanged) {
        // A victim never leaves while its writes are missing from its
        // heir, or FindConflictWrites would miss a conflict: the new sets
        // go in within the same hold. The old ones are freed after it.
        for (auto& [heir, keys] : unions) {
          std::swap(heir->inherited_writes(), keys);
        }
        for (const Victim& v : victims) {
          dag_->DeleteStateLocked(v.state, v.heir);
        }
      }
    }
    if (!unchanged) continue;  // plan again from the current DAG

    // The versions under a victim, and under the states it inherited
    // from, now promote to a new heir: revisit those keys.
    for (const Victim& v : victims) {
      for (const KeySet* ks :
           {&v.state->write_set(), &v.state->inherited_writes()}) {
        dirty_keys_.insert(ks->keys().begin(), ks->keys().end());
      }
      // Its heir holds these now, and no walk reaches an unlinked state.
      v.state->inherited_writes() = KeySet();
      if (v.state->child_slots() >= 2) {
        open_forks_.emplace_back(v.state->id(), v.state->child_slots());
      }
    }
    stats->states_deleted += victims.size();
    return;
  }
}

void GarbageCollector::RecordPromotionPass(GcStats* stats) {
  TARDIS_TRACE_SCOPE("gc", "promote");
  // Only keys whose versions lost their owning state need promotion work;
  // dirty_keys_ was filled while deleting (and persists across runs until
  // processed, so a key is never missed).
  std::unordered_set<std::string> keys;
  keys.swap(dirty_keys_);
  for (const std::string& key : keys) {
    std::vector<VersionEntry> versions = kvmap_->Versions(key);
    if (versions.empty()) continue;

    // Live version ids already present for this key (their record stays).
    std::unordered_set<StateId> live_ids;
    for (const VersionEntry& v : versions) {
      if (!v.state->deleted.load()) live_ids.insert(v.sid);
    }

    // Group dead versions by the live state that inherited their identity
    // (their "promotion target"). Members of one group sit on a single
    // spliced-away chain, so the one with the largest sid supersedes the
    // rest; the winner itself is superseded only if the heir state wrote
    // the key again. Winners stay in place under their original state —
    // Fig. 7 visibility needs only the (immutable) id and fork path, so a
    // version owned by a compressed-away state remains perfectly
    // readable, and nothing has to be re-tagged on later GC cycles.
    //
    // No commit lock: this cycle deletes nothing more, so the promotion
    // table alone resolves a dead id to its live heir (the single-deleter
    // invariant in state_dag.h).
    std::unordered_map<StateId, StateId> winner;  // heir id -> winning sid
    std::vector<std::pair<VersionEntry, StateId>> dead;  // entry, heir id
    for (const VersionEntry& v : versions) {
      if (!v.state->deleted.load()) continue;
      const StateId heir_id = dag_->ResolvePromotedId(v.sid);
      dead.emplace_back(v, heir_id);
      if (heir_id == kInvalidStateId) continue;  // unresolvable: prune
      auto it = winner.find(heir_id);
      if (it == winner.end() || v.sid > it->second) {
        winner[heir_id] = v.sid;
      }
    }
    for (const auto& [v, heir_id] : dead) {
      if (heir_id != kInvalidStateId) {
        const bool is_winner = winner[heir_id] == v.sid;
        const bool heir_rewrote = live_ids.count(heir_id) > 0;
        if (is_winner && !heir_rewrote) {
          stats->versions_promoted++;  // retained as the surviving version
          continue;
        }
      }
      if (kvmap_->RemoveVersion(key, v.sid)) {
        stats->versions_pruned++;
        if (record_store_ != nullptr) {
          record_store_->Delete(EncodeRecordKey(key, v.sid));
        }
      }
    }
  }

  // Reclaim retired skip-list nodes; the map's internal gate guarantees
  // no reader or writer still holds a pointer into a version list.
  kvmap_->DrainRetired();
}

void GarbageCollector::ForkPathPass(GcStats* stats) {
  TARDIS_TRACE_SCOPE("gc", "prune");
  // Each distinct path is rewritten once per sweep: the states of a chain
  // share one. The memo keeps every old path alive, so none is freed under
  // the lock and no address is reused while it keys the memo.
  struct Rewrite {
    std::shared_ptr<const ForkPath> old_path;
    std::shared_ptr<const ForkPath> new_path;  // null: names no closed fork
  };
  std::unordered_map<const ForkPath*, Rewrite> rewritten;
  auto prune = [&](State* s) {
    std::shared_ptr<const ForkPath> path = s->fork_path();
    Rewrite& r = rewritten[path.get()];
    if (r.old_path == nullptr) {
      if (path->Names(*closed_)) {
        ForkPath pruned = *path;
        pruned.Prune(closed_);
        r.new_path = std::make_shared<const ForkPath>(std::move(pruned));
      }
      r.old_path = std::move(path);
    }
    if (r.new_path != nullptr) s->set_fork_path(r.new_path);
  };

  // Close each deleted fork point F whose live heir holds (F,1)...(F,k).
  // Every live state that descends from F descends from that heir, so
  // every reader that descends from F holds all of F's entries, and they
  // can leave every path without changing a Fig. 7 answer (DESIGN.md §4b).
  std::vector<StateId> fresh;
  // Every live state whose path names a fork closed now descends from the
  // fork's heir: the walk down from the heirs visits them all. States
  // created after the closed set is published have clean paths, so the
  // walk stops at ids above `horizon`. Only this collector deletes states.
  std::vector<State*> work;
  StateId horizon = 0;
  if (!open_forks_.empty()) {
    TimedHold hold(this, hold_prune_us_);
    open_forks_.erase(
        std::remove_if(open_forks_.begin(), open_forks_.end(),
                       [&](const std::pair<StateId, uint32_t>& fork) {
                         StatePtr heir = dag_->ResolveLocked(fork.first);
                         if (heir == nullptr) return true;  // never closes
                         if (!heir->fork_path()->HoldsEveryBranch(
                                 fork.first, fork.second)) {
                           return false;
                         }
                         fresh.push_back(fork.first);
                         work.push_back(heir.get());
                         return true;
                       }),
        open_forks_.end());
    if (!fresh.empty()) {
      auto closed = std::make_shared<ClosedForks>(fresh);
      if (closed_ != nullptr) {
        closed->insert(closed->end(), closed_->begin(), closed_->end());
      }
      std::sort(closed->begin(), closed->end());
      closed_ = std::move(closed);
      dag_->SetClosedForksLocked(closed_, /*pruning=*/true);
      horizon = dag_->max_id();
    }
  }
  stats->forks_closed += fresh.size();
  if (closed_ == nullptr) return;

  // Live states under the commit lock, which retroactive annotation holds
  // while it swaps paths, a bounded batch per hold. Readers run Fig. 7
  // without it: a pruned reader path counts a writer's entries for the
  // closed forks as present.
  std::unordered_set<State*> seen;
  while (!work.empty()) {
    TimedHold hold(this, hold_prune_us_);
    for (size_t n = 0; n < kPruneBatch && !work.empty(); n++) {
      State* s = work.back();
      work.pop_back();
      if (!seen.insert(s).second) continue;
      prune(s);
      for (const StatePtr& c : s->children()) {
        if (c->id() <= horizon) work.push_back(c.get());
      }
    }
    // Walk done: no live path names a closed fork, so chains share again.
    if (work.empty()) dag_->SetClosedForksLocked(closed_, /*pruning=*/false);
  }

  // Deleted states that still own a version keep their closed entries
  // (they count as present in every pruned reader path) until the closed
  // set is retired. That walks the whole version map, so it waits until
  // the set has grown or aged.
  if (closed_->size() < kRetireAt && ++cycles_since_retire_ < kRetireEvery) {
    return;
  }
  // Nothing but this collector swaps a deleted state's path, so no lock.
  // Record promotion drained the versions it removed, so no reader can
  // reach a deleted owner this walk misses.
  const StateId oldest = closed_->front();
  kvmap_->ForEachKey([&](const std::string& key) {
    kvmap_->ForEachVersion(key, [&](const VersionEntry& v) {
      if (v.sid > oldest && v.state->deleted.load()) prune(v.state.get());
    });
  });
  // No path names a closed fork any more: retire them.
  {
    TimedHold hold(this, hold_prune_us_);
    dag_->SetClosedForksLocked(nullptr, /*pruning=*/false);
  }
  closed_ = nullptr;
  cycles_since_retire_ = 0;
}

void GarbageCollector::StartBackground(uint64_t interval_ms) {
  std::lock_guard<std::mutex> guard(bg_mu_);
  if (bg_running_) return;
  bg_stop_ = false;
  bg_running_ = true;
  bg_ = std::thread([this, interval_ms] {
    std::unique_lock<std::mutex> lk(bg_mu_);
    while (!bg_stop_) {
      bg_cv_.wait_for(lk, std::chrono::milliseconds(interval_ms),
                      [this] { return bg_stop_; });
      if (bg_stop_) break;
      lk.unlock();
      RunOnce();
      lk.lock();
    }
  });
}

void GarbageCollector::StopBackground() {
  {
    std::lock_guard<std::mutex> guard(bg_mu_);
    if (!bg_running_) return;
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  if (bg_.joinable()) bg_.join();
  std::lock_guard<std::mutex> guard(bg_mu_);
  bg_running_ = false;
}

GcStats GarbageCollector::TotalStats() const {
  GcStats out;
  out.runs = runs_total_->Value();
  out.states_marked = states_marked_total_->Value();
  out.states_deleted = states_deleted_total_->Value();
  out.versions_promoted = versions_promoted_total_->Value();
  out.versions_pruned = versions_pruned_total_->Value();
  out.edges_dropped = edges_dropped_total_->Value();
  out.forks_closed = forks_closed_total_->Value();
  return out;
}

}  // namespace tardis
