#include "core/gc.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "core/record_codec.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace tardis {

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
  pass_duration_us_ = registry->RegisterHistogram(
      "tardis_gc_pass_duration_us",
      "Wall time of one full GC cycle, microseconds", site);
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
  const uint64_t t0 = NowMicros();
  DagCompressionPass(&stats);
  const uint64_t t1 = NowMicros();
  RecordPromotionPass(&stats);
  if (trace) {
    fprintf(stderr,
            "[gc] compress=%lluus promote=%lluus deleted=%llu pruned=%llu "
            "kept=%llu\n",
            (unsigned long long)(t1 - t0),
            (unsigned long long)(NowMicros() - t1),
            (unsigned long long)stats.states_deleted,
            (unsigned long long)stats.versions_pruned,
            (unsigned long long)stats.versions_promoted);
  }
  runs_total_->Increment();
  states_marked_total_->Increment(stats.states_marked);
  states_deleted_total_->Increment(stats.states_deleted);
  versions_promoted_total_->Increment(stats.versions_promoted);
  versions_pruned_total_->Increment(stats.versions_pruned);
  pass_duration_us_->Observe(NowMicros() - t0);
  return stats;
}

void GarbageCollector::DagCompressionPass(GcStats* stats) {
  TARDIS_TRACE_SCOPE("gc", "compress");
  std::vector<StatePtr> ceilings;
  {
    std::lock_guard<std::mutex> guard(ceilings_mu_);
    ceilings.swap(pending_ceilings_);
  }

  std::lock_guard<std::mutex> dag_guard(dag_->Lock());

  // Pass 1 (bottom-up): mark every proper ancestor of each ceiling. A
  // marked state's ancestors are already marked (invariant of this pass),
  // so the walk stops at the first marked state — each state is marked
  // exactly once over the store's lifetime, no matter how many ceilings
  // accumulate above it.
  for (const StatePtr& ceiling : ceilings) {
    std::deque<StatePtr> work(ceiling->parents().begin(),
                              ceiling->parents().end());
    while (!work.empty()) {
      StatePtr s = work.back();
      work.pop_back();
      if (s->marked.exchange(true)) continue;  // subtree already done
      stats->states_marked++;
      for (const StatePtr& p : s->parents()) work.push_back(p);
    }
  }

  // Pass 2 (top-down, id order = topological): safe-to-gc iff marked, not
  // pinned as a read state, and all surviving parents are safe-to-gc.
  std::vector<StatePtr> states = dag_->AllStatesLocked();
  for (const StatePtr& s : states) {
    if (!s->marked.load()) continue;
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
  // to its most recent surviving child. Record which keys lost a version
  // owner so the promotion pass only visits those, and batch the
  // write-set inheritance per *final* surviving heir (a chain-at-a-time
  // union would be quadratic in the chain length).
  std::vector<StatePtr> victims;
  for (const StatePtr& s : states) {
    if (s->deleted.load() || !s->safe_to_gc.load()) continue;
    if (s->parents().empty()) continue;  // keep the root: every surviving
                                         // state stays attached to it
    if (s->children().size() != 1) continue;  // fork point or dangling leaf
    StatePtr heir = s->children()[0];
    for (const std::string& key : s->write_set().keys()) {
      dirty_keys_.insert(key);
    }
    dag_->DeleteStateLocked(s, heir);
    victims.push_back(s);
    stats->states_deleted++;
  }
  // heir -> flat key list; dedup + one Union per heir at the end keeps
  // this linear in the total number of inherited keys.
  std::unordered_map<State*, std::vector<std::string>> inherited;
  std::unordered_map<State*, StatePtr> heir_ptr;
  for (const StatePtr& victim : victims) {
    StatePtr heir = dag_->ResolveLocked(victim->id());
    if (heir == nullptr) continue;
    std::vector<std::string>& bucket = inherited[heir.get()];
    const auto& own = victim->write_set().keys();
    const auto& passed = victim->inherited_writes().keys();
    bucket.insert(bucket.end(), own.begin(), own.end());
    bucket.insert(bucket.end(), passed.begin(), passed.end());
    heir_ptr[heir.get()] = heir;
  }
  for (auto& [heir_raw, bucket] : inherited) {
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
    KeySet batch;
    for (std::string& k : bucket) batch.Add(std::move(k));
    heir_ptr[heir_raw]->inherited_writes().Union(batch);
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
    std::unordered_map<StateId, StateId> winner;  // heir id -> winning sid
    std::vector<std::pair<VersionEntry, StateId>> dead;  // entry, heir id
    {
      // One commit-lock acquisition resolves every dead version of the key.
      std::lock_guard<std::mutex> dag_guard(dag_->Lock());
      for (const VersionEntry& v : versions) {
        if (!v.state->deleted.load()) continue;
        StatePtr heir = dag_->ResolveLocked(v.sid);
        const StateId heir_id = heir ? heir->id() : kInvalidStateId;
        dead.emplace_back(v, heir_id);
        if (heir_id == kInvalidStateId) continue;  // branch gone: prune
        auto it = winner.find(heir_id);
        if (it == winner.end() || v.sid > it->second) {
          winner[heir_id] = v.sid;
        }
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
  return out;
}

}  // namespace tardis
