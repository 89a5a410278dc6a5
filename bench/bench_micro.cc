// Microbenchmarks (google-benchmark) for the mechanisms the paper's
// design arguments rest on, including the DESIGN.md ablations:
//
//  * fork-path subset check (Fig. 7) vs a naive DAG ancestor walk — the
//    paper's case against dependency checking;
//  * skip-list version lists vs a sorted vector under version churn;
//  * read-state selection: leaf fast path vs full-DAG BFS (Ancestor vs
//    Parent, §7.1.4);
//  * storage substrate point ops (B+Tree, pager) and utility costs.

#include <benchmark/benchmark.h>

#include <deque>
#include <unordered_set>

#include "core/state_dag.h"
#include "core/tardis_store.h"
#include "core/key_version_map.h"
#include "storage/btree_record_store.h"
#include "storage/skiplist.h"
#include "util/random.h"
#include "util/zipf.h"

namespace tardis {
namespace {

StatePtr Extend(StateDag* dag, const StatePtr& parent,
                std::vector<std::string> writes = {}) {
  KeySet ws;
  for (auto& k : writes) ws.Add(k);
  std::lock_guard<std::mutex> guard(dag->Lock());
  return dag->CreateStateLocked({parent}, dag->NextLocalGuid(), std::move(ws),
                                false);
}

/// Builds a DAG with `chain` states per branch and `branches` branches
/// forking off the root's child. Returns (deep tip, sibling tip).
struct BranchyDag {
  std::unique_ptr<StateDag> dag;
  StatePtr tip;
  StatePtr sibling_tip;
};

BranchyDag BuildDag(int branches, int chain) {
  BranchyDag b;
  b.dag = std::make_unique<StateDag>();
  StatePtr base = Extend(b.dag.get(), b.dag->root());
  for (int br = 0; br < branches; br++) {
    StatePtr s = base;
    for (int i = 0; i < chain; i++) s = Extend(b.dag.get(), s);
    if (br == 0) b.tip = s;
    else b.sibling_tip = s;
  }
  if (!b.sibling_tip) b.sibling_tip = b.tip;
  return b;
}

// ---- fork-path check vs naive ancestor walk -----------------------------------

void BM_ForkPathDescendantCheck(benchmark::State& state) {
  BranchyDag b = BuildDag(static_cast<int>(state.range(0)), 64);
  StatePtr ancestor = b.tip->parents()[0]->parents()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(StateDag::DescendantCheck(*ancestor, *b.tip));
    benchmark::DoNotOptimize(
        StateDag::DescendantCheck(*b.sibling_tip, *b.tip));
  }
}
BENCHMARK(BM_ForkPathDescendantCheck)->Arg(2)->Arg(8)->Arg(32);

/// The ablation: answer the same question by walking parent edges.
bool NaiveAncestorWalk(const State& writer, const State& reader) {
  std::deque<const State*> work{&reader};
  std::unordered_set<const State*> seen;
  while (!work.empty()) {
    const State* s = work.front();
    work.pop_front();
    if (s == &writer) return true;
    if (!seen.insert(s).second) continue;
    for (const StatePtr& p : s->parents()) {
      if (p->id() >= writer.id()) work.push_back(p.get());
    }
  }
  return false;
}

void BM_NaiveAncestorWalk(benchmark::State& state) {
  BranchyDag b = BuildDag(static_cast<int>(state.range(0)), 64);
  StatePtr ancestor = b.tip->parents()[0]->parents()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveAncestorWalk(*ancestor, *b.tip));
    benchmark::DoNotOptimize(NaiveAncestorWalk(*b.sibling_tip, *b.tip));
  }
}
BENCHMARK(BM_NaiveAncestorWalk)->Arg(2)->Arg(8)->Arg(32);

// ---- version lists: skip list vs sorted vector ---------------------------------

struct U64Desc {
  int operator()(uint64_t a, uint64_t b) const {
    return a > b ? -1 : (a < b ? 1 : 0);
  }
};

void BM_SkipListVersionChurn(benchmark::State& state) {
  for (auto _ : state) {
    SkipList<uint64_t, U64Desc> list{U64Desc()};
    for (uint64_t i = 0; i < 256; i++) list.Insert(i);
    // "Pruning": drop the oldest half, like record pruning does.
    for (uint64_t i = 0; i < 128; i++) list.Remove(i);
    benchmark::DoNotOptimize(list.size());
  }
}
BENCHMARK(BM_SkipListVersionChurn);

void BM_SortedVectorVersionChurn(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<uint64_t> v;
    for (uint64_t i = 0; i < 256; i++) {
      auto it = std::lower_bound(v.begin(), v.end(), i, std::greater<>());
      v.insert(it, i);
    }
    for (uint64_t i = 0; i < 128; i++) {
      auto it = std::lower_bound(v.begin(), v.end(), i, std::greater<>());
      if (it != v.end() && *it == i) v.erase(it);
    }
    benchmark::DoNotOptimize(v.size());
  }
}
BENCHMARK(BM_SortedVectorVersionChurn);

// ---- read path through the key-version map -------------------------------------

void BM_KvMapGetVisible(benchmark::State& state) {
  StateDag dag;
  KeyVersionMap map;
  StatePtr s = dag.root();
  for (int i = 0; i < state.range(0); i++) {
    s = Extend(&dag, s);
    map.AddVersion("hot", s,
                   std::make_shared<const std::string>("v"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.GetVisible("hot", *s));
  }
}
BENCHMARK(BM_KvMapGetVisible)->Arg(4)->Arg(64)->Arg(512);

// ---- read-state selection (Ancestor fast path vs full-DAG search) --------------

void BM_BfsFromLeaves(benchmark::State& state) {
  BranchyDag b = BuildDag(8, static_cast<int>(state.range(0)));
  StateId want = b.tip->id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.dag->BfsFromLeaves(
        [&](const StatePtr& s) { return s->id() == want; }));
  }
}
BENCHMARK(BM_BfsFromLeaves)->Arg(8)->Arg(64);

// ---- storage substrate ----------------------------------------------------------

void BM_BTreePut(benchmark::State& state) {
  static int counter = 0;
  std::string file = "/tmp/tardis_bench_btree_" + std::to_string(counter++);
  ::remove(file.c_str());
  auto store = BTreeRecordStore::Open(file, 1024);
  Random rng(1);
  uint64_t i = 0;
  for (auto _ : state) {
    (*store)->Put("key" + std::to_string(rng.Uniform(100000)),
                  "value" + std::to_string(i++));
  }
  ::remove(file.c_str());
}
BENCHMARK(BM_BTreePut);

void BM_BTreeGet(benchmark::State& state) {
  static int counter = 0;
  std::string file = "/tmp/tardis_bench_btree_get_" + std::to_string(counter++);
  ::remove(file.c_str());
  auto store = BTreeRecordStore::Open(file, 1024);
  for (int i = 0; i < 10'000; i++) {
    (*store)->Put("key" + std::to_string(i), "value");
  }
  Random rng(2);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*store)->Get("key" + std::to_string(rng.Uniform(10'000)), &out));
  }
  ::remove(file.c_str());
}
BENCHMARK(BM_BTreeGet);

void BM_ZipfianNext(benchmark::State& state) {
  ScrambledZipfianGenerator zipf(1'000'000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
}
BENCHMARK(BM_ZipfianNext);

// ---- commit-path and GC ablations ------------------------------------------------

void BM_TardisCommit(benchmark::State& state) {
  // Full begin/put×N/commit cycle on one branch; arg = writes per txn.
  auto store = std::move(*TardisStore::Open(TardisOptions{}));
  auto session = store->CreateSession();
  const int writes = static_cast<int>(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    auto txn = std::move(*store->Begin(session.get()));
    for (int w = 0; w < writes; w++) {
      txn->Put("key" + std::to_string((i * writes + w) % 1000), "value");
    }
    txn->Commit();
    i++;
  }
  state.SetLabel("states=" + std::to_string(store->dag()->state_count()));
}
BENCHMARK(BM_TardisCommit)->Arg(1)->Arg(3)->Arg(10);

void BM_TardisMergeByBranches(benchmark::State& state) {
  // Cost of one merge transaction as a function of the branch count:
  // fork N branches, merge them, repeat.
  const int branches = static_cast<int>(state.range(0));
  auto store = std::move(*TardisStore::Open(TardisOptions{}));
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (int b = 0; b < branches; b++) {
    sessions.push_back(store->CreateSession());
  }
  auto merger = store->CreateSession();
  {
    auto seed = std::move(*store->Begin(merger.get()));
    seed->Put("hot", "0");
    seed->Commit();
  }
  for (auto _ : state) {
    state.PauseTiming();
    {
      std::vector<TxnPtr> txns;
      for (int b = 0; b < branches; b++) {
        auto t = std::move(*store->Begin(sessions[b].get(), AnyBegin()));
        std::string v;
        t->Get("hot", &v);
        t->Put("hot", std::to_string(b));
        txns.push_back(std::move(t));
      }
      for (auto& t : txns) t->Commit();
    }
    state.ResumeTiming();
    auto m = std::move(*store->BeginMerge(merger.get()));
    auto forks = m->FindForkPoints(m->parents());
    std::string fv;
    if (forks.ok()) m->GetForId("hot", (*forks)[0], &fv);
    m->FindConflictWrites(m->parents());
    m->Put("hot", "merged");
    m->Commit();
    state.PauseTiming();
    // Keep the DAG bounded so the measurement isolates the merge itself
    // rather than ever-growing ancestor walks.
    store->PlaceCeiling(merger.get());
    store->RunGarbageCollection();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_TardisMergeByBranches)->Arg(2)->Arg(4)->Arg(8);

void BM_GcPass(benchmark::State& state) {
  // One full GC cycle over a chain of `range` states (compression +
  // record pruning). Measures the amortized cost per collected state.
  const int chain = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto store = std::move(*TardisStore::Open(TardisOptions{}));
    auto session = store->CreateSession();
    for (int i = 0; i < chain; i++) {
      auto txn = std::move(*store->Begin(session.get()));
      txn->Put("k" + std::to_string(i % 50), "v");
      txn->Commit();
    }
    store->PlaceCeiling(session.get());
    state.ResumeTiming();
    store->RunGarbageCollection();
  }
  state.SetItemsProcessed(state.iterations() * chain);
}
BENCHMARK(BM_GcPass)->Arg(256)->Arg(2048);

void BM_RetroactiveForkAnnotation(benchmark::State& state) {
  // Cost of forking below a chain of `range` single-child states: the
  // second child triggers the retroactive subtree annotation.
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    StateDag dag;
    StatePtr base = Extend(&dag, dag.root());
    StatePtr tip = base;
    for (int i = 0; i < depth; i++) tip = Extend(&dag, tip);
    state.ResumeTiming();
    benchmark::DoNotOptimize(Extend(&dag, base));  // forks: annotates depth states
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_RetroactiveForkAnnotation)->Arg(8)->Arg(128)->Arg(1024);

void BM_KeySetIntersects(benchmark::State& state) {
  KeySet a, b;
  for (int i = 0; i < 6; i++) a.Add("key" + std::to_string(i * 7919 % 100));
  for (int i = 0; i < 6; i++) b.Add("key" + std::to_string(i * 104729 % 97));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersects(b));
  }
}
BENCHMARK(BM_KeySetIntersects);

}  // namespace
}  // namespace tardis

BENCHMARK_MAIN();
