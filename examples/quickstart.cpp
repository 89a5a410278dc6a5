// Quickstart: open a TARDiS store, run transactions, watch a conflict
// fork the State DAG, inspect the branches, and merge them.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <string>

#include "core/tardis_store.h"

using namespace tardis;

#define CHECK_OK(expr)                                            \
  do {                                                            \
    ::tardis::Status _s = (expr);                                 \
    if (!_s.ok()) {                                               \
      fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,    \
              _s.ToString().c_str());                             \
      return 1;                                                   \
    }                                                             \
  } while (0)

int main() {
  // 1. Open an in-memory TARDiS site (set options.dir and the kBTree
  //    backend for durability).
  TardisOptions options;
  auto store_or = TardisStore::Open(options);
  if (!store_or.ok()) {
    fprintf(stderr, "open failed: %s\n", store_or.status().ToString().c_str());
    return 1;
  }
  TardisStore* store = store_or->get();

  // 2. Ordinary transactions: begin / get / put / commit. The default
  //    constraints (Ancestor begin, Serializability end) make storage look
  //    sequential within a branch.
  auto alice = store->CreateSession();
  auto bruno = store->CreateSession();
  {
    auto txn = store->Begin(alice.get());
    CHECK_OK(txn.status());
    CHECK_OK((*txn)->Put("greeting", "hello"));
    CHECK_OK((*txn)->Commit());
  }

  // 3. A write-write conflict: both sessions update `greeting` from the
  //    same state. Neither blocks, neither aborts — the store forks.
  auto ta = store->Begin(alice.get());
  auto tb = store->Begin(bruno.get());
  CHECK_OK(ta.status());
  CHECK_OK(tb.status());
  std::string v;
  CHECK_OK((*ta)->Get("greeting", &v));
  CHECK_OK((*tb)->Get("greeting", &v));
  CHECK_OK((*ta)->Put("greeting", "hello from alice"));
  CHECK_OK((*tb)->Put("greeting", "hello from bruno"));
  CHECK_OK((*ta)->Commit());
  CHECK_OK((*tb)->Commit());

  printf("after conflicting commits: %zu branches\n",
         store->dag()->Leaves().size());

  // 4. Inter-branch isolation: each session still reads its own value.
  for (auto* session : {alice.get(), bruno.get()}) {
    auto txn = store->Begin(session);
    CHECK_OK(txn.status());
    CHECK_OK((*txn)->Get("greeting", &v));
    printf("  session %p reads: %s\n", static_cast<void*>(session), v.c_str());
    (*txn)->Abort();
  }

  // 5. Merge: read both branch tips, inspect the conflict, write one
  //    reconciled state back atomically.
  auto merger = store->CreateSession();
  auto merge = store->BeginMerge(merger.get());
  CHECK_OK(merge.status());
  auto conflicts = (*merge)->FindConflictWrites((*merge)->parents());
  CHECK_OK(conflicts.status());
  printf("conflicting keys:");
  for (const std::string& key : *conflicts) printf(" %s", key.c_str());
  printf("\n");

  auto forks = (*merge)->FindForkPoints((*merge)->parents());
  CHECK_OK(forks.status());
  std::string merged = "hello from";
  for (StateId parent : (*merge)->parents()) {
    std::string branch_value;
    CHECK_OK((*merge)->GetForId("greeting", parent, &branch_value));
    merged += branch_value.substr(10);  // strip "hello from"
    merged += " &";
  }
  merged.resize(merged.size() - 2);
  CHECK_OK((*merge)->Put("greeting", merged));
  CHECK_OK((*merge)->Commit());

  // 6. Everyone converges on the merged state.
  auto txn = store->Begin(alice.get());
  CHECK_OK(txn.status());
  CHECK_OK((*txn)->Get("greeting", &v));
  (*txn)->Abort();
  printf("after merge (%zu branch): %s\n", store->dag()->Leaves().size(),
         v.c_str());
  return 0;
}
