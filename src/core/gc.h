// GarbageCollector: TARDiS' three-pronged garbage collection (§6.3).
//
//  1. Ceilings — clients promise never to use states preceding a ceiling
//     as read states.
//  2. DAG (path) compression — the three-pass algorithm of Figure 8:
//     a ceiling-marking bottom-up pass, a safe-to-gc top-down pass, and a
//     garbage-collecting pass that promotes non-fork-point states to
//     their most recent surviving child. Before it plans a batch, the
//     third pass drops the redundant edges of safe fork points: an edge
//     s -> c goes when another parent of c descends from s. A ladder of
//     fork points that one merge reconciled then compresses like a chain.
//  3. Record promotion/pruning — record versions of deleted states are
//     re-tagged with their promoted state's id; of a chain sharing an id
//     only the most recent survives.
//
// Each cycle then prunes the fork paths: a deleted fork point whose live
// heir descends from all its branches is *closed*, and its entries leave
// every path (DESIGN.md §4b), so paths stop growing with uptime.
//
// Runs either on demand (RunOnce) or on a background thread. It holds
// the commit lock (StateDag::Lock()) only in short steps, so commits keep
// their pace while it runs: passes 1 and 2 and record promotion take no
// commit lock at all, and pass 3 and path pruning work in batches of
// bounded size (DESIGN.md §4b).

#ifndef TARDIS_CORE_GC_H_
#define TARDIS_CORE_GC_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <thread>
#include <utility>
#include <vector>

#include "core/key_version_map.h"
#include "core/state_dag.h"
#include "obs/metrics.h"
#include "storage/record_store.h"
#include "util/status.h"

namespace tardis {

/// Per-run deltas returned by RunOnce(); TotalStats() materializes the
/// lifetime totals from the metrics registry counters.
struct GcStats {
  uint64_t runs = 0;
  uint64_t states_marked = 0;
  uint64_t states_deleted = 0;
  uint64_t versions_promoted = 0;
  uint64_t versions_pruned = 0;
  uint64_t edges_dropped = 0;
  uint64_t forks_closed = 0;
};

class GarbageCollector {
 public:
  /// `record_store` may be null (pure in-memory configuration); then only
  /// the in-memory version entries are pruned. `registry` is where the GC
  /// registers its counters (null: a private registry is created).
  GarbageCollector(StateDag* dag, KeyVersionMap* kvmap,
                   RecordStore* record_store,
                   obs::MetricsRegistry* registry = nullptr);
  ~GarbageCollector();

  /// Registers a ceiling: states that are proper ancestors of `ceiling`
  /// become eligible for compression on the next run.
  void PlaceCeiling(const StatePtr& ceiling);

  /// One full compression + pruning cycle. Safe to run concurrently with
  /// transactions; each commit-lock hold covers one bounded batch.
  GcStats RunOnce();

  void StartBackground(uint64_t interval_ms);
  void StopBackground();

  GcStats TotalStats() const;

 private:
  class TimedHold;

  void DagCompressionPass(GcStats* stats);
  /// Pass 3 for one batch of candidates in descending id order: plans the
  /// victims and their heirs' inherited writes, then unlinks them.
  void DeleteBatch(const std::vector<StatePtr>& batch, GcStats* stats);
  void RecordPromotionPass(GcStats* stats);
  /// Closes the deleted fork points whose heir descends from all their
  /// branches and prunes their entries from every live state's path and
  /// every version owner's.
  void ForkPathPass(GcStats* stats);

  StateDag* const dag_;
  KeyVersionMap* const kvmap_;
  RecordStore* const record_store_;

  std::mutex run_mu_;  ///< serializes whole collection cycles
  std::mutex ceilings_mu_;
  std::vector<StatePtr> pending_ceilings_;

  /// Keys written by states deleted since the last promotion pass; only
  /// these need record promotion. Touched by the GC thread only.
  std::unordered_set<std::string> dirty_keys_;

  /// Every marked state not yet deleted: pass 2 and pass 3 visit these
  /// instead of the whole DAG. Guarded by run_mu_.
  std::vector<StatePtr> marked_live_;
  /// Deleted fork points not yet closed, with their child slots, and the
  /// closed forks not yet retired (null: none). Guarded by run_mu_.
  std::vector<std::pair<StateId, uint32_t>> open_forks_;
  std::shared_ptr<const ClosedForks> closed_;
  int cycles_since_retire_ = 0;
  /// Longest commit-lock hold of the current cycle (for TARDIS_GC_TRACE).
  uint64_t max_hold_us_ = 0;

  /// Lifetime totals live in registry counters, not a mutex-guarded
  /// struct. own_registry_ backs the counters when no shared registry was
  /// supplied.
  std::shared_ptr<obs::MetricsRegistry> own_registry_;
  obs::Counter* runs_total_ = nullptr;
  obs::Counter* states_marked_total_ = nullptr;
  obs::Counter* states_deleted_total_ = nullptr;
  obs::Counter* versions_promoted_total_ = nullptr;
  obs::Counter* versions_pruned_total_ = nullptr;
  obs::Counter* edges_dropped_total_ = nullptr;
  obs::Counter* forks_closed_total_ = nullptr;
  obs::HistogramMetric* pass_duration_us_ = nullptr;
  obs::HistogramMetric* phase_compress_us_ = nullptr;
  obs::HistogramMetric* phase_promote_us_ = nullptr;
  obs::HistogramMetric* phase_prune_us_ = nullptr;
  obs::HistogramMetric* hold_compress_us_ = nullptr;  ///< pass 3 planning
  obs::HistogramMetric* hold_delete_us_ = nullptr;    ///< pass 3 unlinking
  obs::HistogramMetric* hold_prune_us_ = nullptr;     ///< path pruning

  std::thread bg_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  bool bg_running_ = false;
};

}  // namespace tardis

#endif  // TARDIS_CORE_GC_H_
