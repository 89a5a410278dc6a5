// CI check for the metric catalog: drives one in-memory store through a
// fork + merge + GC cycle, then diffs the set of metric names the registry
// exposes against the documented catalog (DESIGN.md §7). Exits nonzero and
// prints the difference in both directions when the catalog drifts, so a
// renamed or dropped series fails the build instead of silently breaking
// dashboards.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "client/tardis_client.h"
#include "cluster/partition_map.h"
#include "cluster/router.h"
#include "cluster/twopc.h"
#include "core/tardis_store.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "server/line_server.h"

namespace {

const char* kExpectedNames[] = {
    "tardis_txn_commits_total",
    "tardis_txn_aborts_total",
    "tardis_txn_read_only_commits_total",
    "tardis_txn_remote_applied_total",
    "tardis_txn_forks_total",
    "tardis_txn_merges_total",
    "tardis_commit_latency_us",
    "tardis_merge_latency_us",
    "tardis_dag_states",
    "tardis_dag_leaves",
    "tardis_dag_promotion_entries",
    "tardis_dag_fork_path_max",
    "tardis_gc_runs_total",
    "tardis_gc_states_marked_total",
    "tardis_gc_states_deleted_total",
    "tardis_gc_versions_promoted_total",
    "tardis_gc_versions_pruned_total",
    "tardis_gc_edges_dropped_total",
    "tardis_gc_forks_closed_total",
    "tardis_gc_pass_duration_us",
    "tardis_gc_phase_us",
    "tardis_gc_lock_hold_us",
    "tardis_fault_points_hit_total",
    "tardis_fault_errors_injected_total",
    "tardis_fault_delays_injected_total",
    "tardis_fault_crashes_simulated_total",
    "tardis_fault_short_writes_total",
    "tardis_fault_net_frames_dropped_total",
    "tardis_fault_net_frames_duplicated_total",
    "tardis_fault_net_frames_reordered_total",
    // Partitioning / 2PC (src/cluster/, DESIGN.md §10). The participant
    // registers on the store's registry; the router series are checked
    // here too because both sides share the tardis_2pc_* names
    // (distinguished by the role label).
    "tardis_router_requests",
    // The router's serving layer (server::LineServer, DESIGN.md §6.3),
    // named apart from tardisd's tardisd_* series so `metrics cluster`
    // never folds router queueing into the daemons' numbers.
    "tardis_router_queue_depth",
    "tardis_router_shed_total",
    "tardis_router_deadline_expired_total",
    "tardis_router_queue_wait_us",
    "tardis_2pc_prepares",
    "tardis_2pc_forked_commits",
    "tardis_2pc_in_doubt",
    // Per-request latency breakdown (src/obs/stage.h, DESIGN.md §7): one
    // family labeled only by stage so `metrics cluster` can sum it across
    // sites. Store, 2PC, router, and replicator each register their
    // stages into it.
    "tardis_stage_micros",
    // Fork-native storage (src/storage/cowtrie/, DESIGN.md §12). The
    // backend info metric exists on every store; the trie family appears
    // because this check runs on the trie backend.
    // Client sessions & exactly-once retries (src/core/session.h,
    // src/client/, DESIGN.md §13). The dedup table registers on the
    // store's registry; the client series appear because this check
    // constructs a TardisClient sharing the same registry.
    "tardis_session_dedup_hits",
    "tardis_session_dedup_evictions",
    "tardis_session_dedup_duplicates",
    "tardis_session_dedup_entries",
    "tardis_session_dedup_sessions",
    "tardis_session_header_rejected",
    "tardis_client_requests",
    "tardis_client_retries",
    "tardis_client_failovers",
    "tardis_client_stale_reads",
    "tardis_store_backend",
    "tardis_trie_nodes",
    "tardis_trie_shared_nodes",
    "tardis_trie_merge_diff_keys",
    "tardis_trie_merge_conflicts",
    "tardis_trie_fork_us",
    "tardis_trie_merge_us",
};

#define CHECK_OK(expr)                                                  \
  do {                                                                  \
    auto _s = (expr);                                                   \
    if (!_s.ok()) {                                                     \
      fprintf(stderr, "FAIL %s:%d: %s -> %s\n", __FILE__, __LINE__,     \
              #expr, _s.ToString().c_str());                            \
      return 1;                                                         \
    }                                                                   \
  } while (0)

}  // namespace

int main() {
  using namespace tardis;

  TardisOptions options;  // in-memory
  // The trie backend exposes every series the other backends do, plus the
  // tardis_trie_* family — running the drift check on it covers the
  // superset.
  options.backend = RecordBackend::kTrie;
  auto store_or = TardisStore::Open(options);
  if (!store_or.ok()) {
    fprintf(stderr, "FAIL: Open: %s\n", store_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<TardisStore> store = std::move(*store_or);

  // Seed a key, then fork: two sessions read it and write conflicting
  // values under branch-on-conflict.
  auto seeder = store->CreateSession();
  {
    auto t = store->Begin(seeder.get());
    if (!t.ok()) return 1;
    CHECK_OK((*t)->Put("k", "0"));
    CHECK_OK((*t)->Commit());
  }
  auto s1 = store->CreateSession();
  auto s2 = store->CreateSession();
  auto t1 = store->Begin(s1.get());
  auto t2 = store->Begin(s2.get());
  if (!t1.ok() || !t2.ok()) return 1;
  std::string v;
  CHECK_OK((*t1)->Get("k", &v));
  CHECK_OK((*t2)->Get("k", &v));
  CHECK_OK((*t1)->Put("k", "1"));
  CHECK_OK((*t2)->Put("k", "2"));
  CHECK_OK((*t1)->Commit());
  CHECK_OK((*t2)->Commit());

  // Merge the two branches back together.
  auto merger = store->CreateSession();
  auto m = store->BeginMerge(merger.get());
  if (!m.ok()) return 1;
  auto forks = (*m)->FindForkPoints((*m)->parents());
  if (!forks.ok()) return 1;
  auto conflicts = (*m)->FindConflictWrites((*m)->parents());
  if (!conflicts.ok()) return 1;
  CHECK_OK((*m)->Put("k", "3"));
  CHECK_OK((*m)->Commit());

  // One GC pass so the gc_* counters exist with real traffic behind them.
  store->PlaceCeiling(merger.get());
  store->RunGarbageCollection();

  // The partitioning subsystem's series (DESIGN.md §10): a 2PC
  // participant on this store, and a router sharing the registry so the
  // catalog covers both roles of the shared tardis_2pc_* names. Neither
  // dials anything — construction alone must register every series.
  cluster::TwoPhaseOptions popt;
  popt.self_endpoint = "self";
  cluster::TwoPhaseParticipant participant(store.get(), std::move(popt));
  CHECK_OK(participant.Recover());
  cluster::RouterOptions ropt;
  ropt.coord_endpoints = {"127.0.0.1:1", "127.0.0.1:2"};
  cluster::Router router(cluster::PartitionMap::Uniform(2), std::move(ropt),
                         store->metrics());
  // The router binary's client server, bound exactly as tardis-router
  // binds it (never started: binding alone registers the series).
  server::LineServer router_server(
      {}, [] { return server::LineServer::Handler(); });
  router.BindServingMetrics(&router_server);

  // The client library's series (DESIGN.md §13): a TardisClient sharing
  // the store's registry. Construction alone registers the family — it
  // never dials the (unreachable) endpoint.
  client::TardisClientOptions copt;
  copt.endpoints = {"127.0.0.1:1"};
  copt.registry = store->metrics();
  client::TardisClient client(copt);

  // Diff the exposed name set against the catalog.
  std::set<std::string> expected(std::begin(kExpectedNames),
                                 std::end(kExpectedNames));
  std::set<std::string> actual;
  const std::vector<obs::Sample> samples = store->metrics()->Collect();
  for (const obs::Sample& s : samples) actual.insert(s.name);

  int rc = 0;
  for (const std::string& name : expected) {
    if (actual.count(name) == 0) {
      fprintf(stderr, "MISSING metric (in catalog, not exposed): %s\n",
              name.c_str());
      rc = 1;
    }
  }
  for (const std::string& name : actual) {
    if (expected.count(name) == 0) {
      fprintf(stderr,
              "UNDOCUMENTED metric (exposed, not in catalog): %s\n"
              "  -> add it to kExpectedNames here and to DESIGN.md §7\n",
              name.c_str());
      rc = 1;
    }
  }

  // The lifecycle counters must have seen the fork and the merge.
  const uint64_t fork_count =
      store->metrics()->CounterTotal("tardis_txn_forks_total");
  const uint64_t merge_count =
      store->metrics()->CounterTotal("tardis_txn_merges_total");
  if (fork_count != 1) {
    fprintf(stderr, "FAIL: expected 1 fork, got %llu\n",
            static_cast<unsigned long long>(fork_count));
    rc = 1;
  }
  if (merge_count != 1) {
    fprintf(stderr, "FAIL: expected 1 merge, got %llu\n",
            static_cast<unsigned long long>(merge_count));
    rc = 1;
  }

  if (rc == 0) {
    printf("metrics dump OK: %zu series, catalog of %zu names matches\n",
           samples.size(), expected.size());
  } else {
    fprintf(stderr, "--- full exposition ---\n%s",
            obs::RenderPrometheus(samples).c_str());
  }
  return rc;
}
