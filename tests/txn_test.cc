// Integration tests for TardisStore transactions: begin/commit state
// selection (Fig. 6), branch-on-conflict, inter-branch isolation,
// read-my-writes, merge transactions and the three merge helpers.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tardis_store.h"
#include "util/random.h"

namespace tardis {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TardisOptions options;  // in-memory
    auto store = TardisStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    session_ = store_->CreateSession();
  }

  // Single put-commit helper returning the commit status.
  Status PutCommit(ClientSession* session, const std::string& key,
                   const std::string& value,
                   EndConstraintPtr end = nullptr) {
    auto txn = store_->Begin(session);
    if (!txn.ok()) return txn.status();
    TARDIS_RETURN_IF_ERROR((*txn)->Put(key, value));
    return (*txn)->Commit(end);
  }

  std::string MustGet(ClientSession* session, const std::string& key) {
    auto txn = store_->Begin(session);
    EXPECT_TRUE(txn.ok());
    std::string value;
    Status s = (*txn)->Get(key, &value);
    EXPECT_TRUE(s.ok()) << key << ": " << s.ToString();
    EXPECT_TRUE((*txn)->Commit().ok());
    return value;
  }

  std::unique_ptr<TardisStore> store_;
  std::unique_ptr<ClientSession> session_;
};

TEST_F(TxnTest, PutThenGetRoundTrip) {
  ASSERT_TRUE(PutCommit(session_.get(), "k", "v").ok());
  EXPECT_EQ(MustGet(session_.get(), "k"), "v");
}

TEST_F(TxnTest, GetMissingKeyIsNotFound) {
  auto txn = store_->Begin(session_.get());
  ASSERT_TRUE(txn.ok());
  std::string v;
  EXPECT_TRUE((*txn)->Get("missing", &v).IsNotFound());
  EXPECT_TRUE((*txn)->Commit().ok());
}

TEST_F(TxnTest, ReadsOwnWritesInsideTxn) {
  auto txn = store_->Begin(session_.get());
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put("a", "1").ok());
  std::string v;
  ASSERT_TRUE((*txn)->Get("a", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE((*txn)->Put("a", "2").ok());
  ASSERT_TRUE((*txn)->Get("a", &v).ok());
  EXPECT_EQ(v, "2");
  EXPECT_TRUE((*txn)->Commit().ok());
  EXPECT_EQ(MustGet(session_.get(), "a"), "2");
}

TEST_F(TxnTest, AbortDiscardsWrites) {
  auto txn = store_->Begin(session_.get());
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put("gone", "x").ok());
  (*txn)->Abort();
  auto read = store_->Begin(session_.get());
  ASSERT_TRUE(read.ok());
  std::string v;
  EXPECT_TRUE((*read)->Get("gone", &v).IsNotFound());
  (*read)->Abort();
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_aborts_total"), 2u);
}

TEST_F(TxnTest, DestructorAbortsActiveTxn) {
  {
    auto txn = store_->Begin(session_.get());
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("tmp", "x").ok());
    // dropped without commit
  }
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_aborts_total"), 1u);
  EXPECT_EQ(store_->dag()->state_count(), 1u);
}

TEST_F(TxnTest, ReadOnlyTxnDoesNotGrowDag) {
  ASSERT_TRUE(PutCommit(session_.get(), "k", "v").ok());
  const size_t before = store_->dag()->state_count();
  for (int i = 0; i < 5; i++) MustGet(session_.get(), "k");
  EXPECT_EQ(store_->dag()->state_count(), before);
  EXPECT_EQ(
      store_->metrics()->CounterTotal("tardis_txn_read_only_commits_total"),
      5u);
}

TEST_F(TxnTest, SequentialCommitsExtendOneBranch) {
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        PutCommit(session_.get(), "k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(store_->dag()->Leaves().size(), 1u);
  EXPECT_EQ(store_->dag()->state_count(), 11u);  // root + 10
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_forks_total"), 0u);
}

TEST_F(TxnTest, InMemoryStoreKeepsOneCopyOfEachValue) {
  for (RecordBackend backend : {RecordBackend::kMem, RecordBackend::kTrie}) {
    TardisOptions options;  // no dir: nothing is persisted
    options.backend = backend;
    auto store = TardisStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto session = (*store)->CreateSession();
    for (int i = 0; i < 10; i++) {
      auto txn = (*store)->Begin(session.get());
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE((*txn)->Put("k" + std::to_string(i % 3),
                              "v" + std::to_string(i))
                      .ok());
      ASSERT_TRUE((*txn)->Commit().ok());
    }
    // The version map holds the only copy; the record store stays empty.
    EXPECT_EQ((*store)->record_store()->size(), 0u)
        << RecordBackendName(backend);
    const StateId tip = session->last_commit()->id();
    auto own = (*store)->ReadOwnVersion("k0", tip);
    ASSERT_TRUE(own.ok()) << own.status().ToString();
    EXPECT_EQ(**own, "v9");
    EXPECT_TRUE((*store)->ReadOwnVersion("k1", tip).status().IsNotFound());
  }
}

TEST_F(TxnTest, UsedTransactionRejectsFurtherOps) {
  auto txn = store_->Begin(session_.get());
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put("k", "v").ok());
  ASSERT_TRUE((*txn)->Commit().ok());
  std::string v;
  EXPECT_TRUE((*txn)->Get("k", &v).IsInvalidArgument());
  EXPECT_TRUE((*txn)->Put("k", "w").IsInvalidArgument());
  EXPECT_TRUE((*txn)->Commit().IsInvalidArgument());
}

// ---- branch-on-conflict ----------------------------------------------------

TEST_F(TxnTest, ConflictingCommitsForkTheDag) {
  ASSERT_TRUE(PutCommit(session_.get(), "counter", "0").ok());

  // Two transactions read the same state and both write `counter`.
  auto s2 = store_->CreateSession();
  auto t1 = store_->Begin(session_.get());
  auto t2 = store_->Begin(s2.get());
  ASSERT_TRUE(t1.ok() && t2.ok());
  std::string v;
  ASSERT_TRUE((*t1)->Get("counter", &v).ok());
  ASSERT_TRUE((*t2)->Get("counter", &v).ok());
  ASSERT_TRUE((*t1)->Put("counter", "1").ok());
  ASSERT_TRUE((*t2)->Put("counter", "2").ok());

  // Under plain Serializability both commit: the second forks.
  EXPECT_TRUE((*t1)->Commit(SerializabilityEnd()).ok());
  EXPECT_TRUE((*t2)->Commit(SerializabilityEnd()).ok());
  EXPECT_EQ(store_->dag()->Leaves().size(), 2u);
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_forks_total"), 1u);

  // Each session reads its own branch (inter-branch isolation).
  EXPECT_EQ(MustGet(session_.get(), "counter"), "1");
  EXPECT_EQ(MustGet(s2.get(), "counter"), "2");
}

TEST_F(TxnTest, ForkAnnotationNeverHidesAncestorWrites) {
  // A fork annotates the first child's whole subtree while readers run
  // Fig. 7 without the commit lock. A reader pinned at the tip of a long
  // chain keeps reading a key the chain's first state wrote while a
  // commit forks the root above the chain: no read may miss that write.
  constexpr int kRounds = 20;
  constexpr int kChain = 5000;
  uint64_t wrong = 0;
  for (int round = 0; round < kRounds; round++) {
    auto opened = TardisStore::Open(TardisOptions());
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<TardisStore> store = std::move(*opened);
    auto writer = store->CreateSession();
    auto forker = store->CreateSession();
    // Reads k at the root: its commit cannot ripple past the chain's
    // first state, which writes k, so it forks the root.
    auto fork_txn = store->Begin(forker.get());
    ASSERT_TRUE(fork_txn.ok());
    std::string v;
    ASSERT_TRUE((*fork_txn)->Get("k", &v).IsNotFound());
    auto put = [&](const std::string& key, const std::string& value) {
      auto txn = store->Begin(writer.get());
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE((*txn)->Put(key, value).ok());
      ASSERT_TRUE((*txn)->Commit().ok());
    };
    put("k", "first");
    for (int i = 1; i < kChain; i++) put("chain", std::to_string(i));
    auto reader = store->Begin(writer.get());  // pins the chain's tip
    ASSERT_TRUE(reader.ok());

    std::atomic<bool> done{false};
    std::atomic<uint64_t> reads{0};
    uint64_t round_wrong = 0;
    std::thread loop([&] {
      std::string got;
      while (!done.load()) {
        Status s = (*reader)->Get("k", &got);
        if (!s.ok() || got != "first") round_wrong++;
        reads.fetch_add(1);
      }
    });
    while (reads.load() == 0) std::this_thread::yield();
    ASSERT_TRUE((*fork_txn)->Put("k", "fork").ok());
    ASSERT_TRUE((*fork_txn)->Commit(SerializabilityEnd()).ok());
    done = true;
    loop.join();
    EXPECT_EQ(store->dag()->Leaves().size(), 2u);
    (*reader)->Abort();
    wrong += round_wrong;
  }
  EXPECT_EQ(wrong, 0u);
}

TEST_F(TxnTest, NoBranchingConstraintAbortsSecondWriter) {
  ASSERT_TRUE(PutCommit(session_.get(), "x", "0").ok());
  auto s2 = store_->CreateSession();
  auto seq = AndEnd({SerializabilityEnd(), NoBranchingEnd()});

  auto t1 = store_->Begin(session_.get());
  auto t2 = store_->Begin(s2.get());
  ASSERT_TRUE(t1.ok() && t2.ok());
  std::string v;
  ASSERT_TRUE((*t1)->Get("x", &v).ok());
  ASSERT_TRUE((*t2)->Get("x", &v).ok());
  ASSERT_TRUE((*t1)->Put("x", "1").ok());
  ASSERT_TRUE((*t2)->Put("x", "2").ok());

  EXPECT_TRUE((*t1)->Commit(seq).ok());
  // t2 read x which t1 wrote: it can't ripple through t1's state, and the
  // commit parent now has a child -> abort, like sequential storage.
  Status s = (*t2)->Commit(seq);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(store_->dag()->Leaves().size(), 1u);
}

TEST_F(TxnTest, NonConflictingWritersRippleInsteadOfForking) {
  ASSERT_TRUE(PutCommit(session_.get(), "a", "0").ok());
  auto s2 = store_->CreateSession();
  auto seq = AndEnd({SerializabilityEnd(), NoBranchingEnd()});

  // Disjoint key sets: the second commit ripples below the first.
  auto t1 = store_->Begin(session_.get());
  auto t2 = store_->Begin(s2.get());
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE((*t1)->Put("k1", "x").ok());
  ASSERT_TRUE((*t2)->Put("k2", "y").ok());
  EXPECT_TRUE((*t1)->Commit(seq).ok());
  EXPECT_TRUE((*t2)->Commit(seq).ok());
  EXPECT_EQ(store_->dag()->Leaves().size(), 1u);
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_forks_total"), 0u);

  // Both writes visible on the single branch.
  EXPECT_EQ(MustGet(session_.get(), "k1"), "x");
  EXPECT_EQ(MustGet(session_.get(), "k2"), "y");
}

TEST_F(TxnTest, KBranchingBoundsForkDegree) {
  ASSERT_TRUE(PutCommit(session_.get(), "hot", "0").ok());
  // K-Branching(k=3) allows fewer than 2 children at the commit parent:
  // the first two conflicting commits succeed, the third aborts.
  auto kb = AndEnd({SerializabilityEnd(), KBranchingEnd(3)});
  std::vector<std::unique_ptr<ClientSession>> sessions;
  std::vector<TxnPtr> txns;
  for (int i = 0; i < 3; i++) {
    sessions.push_back(store_->CreateSession());
    auto t = store_->Begin(sessions.back().get());
    ASSERT_TRUE(t.ok());
    std::string v;
    ASSERT_TRUE((*t)->Get("hot", &v).ok());
    ASSERT_TRUE((*t)->Put("hot", std::to_string(i)).ok());
    txns.push_back(std::move(*t));
  }
  EXPECT_TRUE(txns[0]->Commit(kb).ok());
  EXPECT_TRUE(txns[1]->Commit(kb).ok());
  EXPECT_TRUE(txns[2]->Commit(kb).IsAborted());
  EXPECT_EQ(store_->dag()->Leaves().size(), 2u);
}

TEST_F(TxnTest, SnapshotIsolationAllowsReadSkewButNotWriteWrite) {
  ASSERT_TRUE(PutCommit(session_.get(), "w", "0").ok());
  auto s2 = store_->CreateSession();
  auto si = AndEnd({SnapshotIsolationEnd(), NoBranchingEnd()});

  // Write-write conflict: second aborts under SI + NoBranching.
  auto t1 = store_->Begin(session_.get());
  auto t2 = store_->Begin(s2.get());
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE((*t1)->Put("w", "1").ok());
  ASSERT_TRUE((*t2)->Put("w", "2").ok());
  EXPECT_TRUE((*t1)->Commit(si).ok());
  EXPECT_TRUE((*t2)->Commit(si).IsAborted());

  // Read-write (no write overlap): SI lets it through where Ser wouldn't.
  auto t3 = store_->Begin(session_.get());
  auto t4 = store_->Begin(s2.get());
  ASSERT_TRUE(t3.ok() && t4.ok());
  std::string v;
  ASSERT_TRUE((*t4)->Get("w", &v).ok());   // t4 reads w
  ASSERT_TRUE((*t3)->Put("w", "3").ok());  // t3 writes w
  ASSERT_TRUE((*t4)->Put("other", "x").ok());
  EXPECT_TRUE((*t3)->Commit(si).ok());
  EXPECT_TRUE((*t4)->Commit(si).ok());  // stale read tolerated under SI
}

TEST_F(TxnTest, ParentBeginSeesOnlyOwnCommits) {
  // Session A and B conflict and fork; with Parent begin, A continues
  // from exactly its own last commit.
  auto sB = store_->CreateSession();
  ASSERT_TRUE(PutCommit(session_.get(), "base", "0").ok());

  auto tA = store_->Begin(session_.get());
  auto tB = store_->Begin(sB.get());
  ASSERT_TRUE(tA.ok() && tB.ok());
  std::string v;
  ASSERT_TRUE((*tA)->Get("base", &v).ok());
  ASSERT_TRUE((*tB)->Get("base", &v).ok());
  ASSERT_TRUE((*tA)->Put("base", "A").ok());
  ASSERT_TRUE((*tB)->Put("base", "B").ok());
  ASSERT_TRUE((*tA)->Commit(SerializabilityEnd()).ok());
  ASSERT_TRUE((*tB)->Commit(SerializabilityEnd()).ok());

  auto tA2 = store_->Begin(session_.get(), ParentBegin());
  ASSERT_TRUE(tA2.ok());
  ASSERT_TRUE((*tA2)->Get("base", &v).ok());
  EXPECT_EQ(v, "A");
  EXPECT_EQ((*tA2)->parents()[0], session_->last_commit()->id());
  (*tA2)->Abort();
}

TEST_F(TxnTest, AncestorBeginGuaranteesReadMyWrites) {
  ASSERT_TRUE(PutCommit(session_.get(), "mine", "1").ok());
  // Another session forks elsewhere; this session still sees its write.
  auto s2 = store_->CreateSession();
  ASSERT_TRUE(PutCommit(s2.get(), "theirs", "2").ok());
  auto txn = store_->Begin(session_.get(), AncestorBegin());
  ASSERT_TRUE(txn.ok());
  std::string v;
  EXPECT_TRUE((*txn)->Get("mine", &v).ok());
  EXPECT_EQ(v, "1");
  (*txn)->Abort();
}

TEST_F(TxnTest, StateIdBeginPinsExactState) {
  ASSERT_TRUE(PutCommit(session_.get(), "k", "old").ok());
  const StateId pinned = session_->last_commit()->id();
  ASSERT_TRUE(PutCommit(session_.get(), "k", "new").ok());

  auto txn = store_->Begin(session_.get(), StateIdBegin(pinned));
  ASSERT_TRUE(txn.ok());
  std::string v;
  ASSERT_TRUE((*txn)->Get("k", &v).ok());
  EXPECT_EQ(v, "old");  // time travel to the pinned state
  (*txn)->Abort();
}

// ---- merge transactions -----------------------------------------------------

TEST_F(TxnTest, MergeReconcilesCounterBranches) {
  // The Figure 3 counter: two branches increment independently; the merge
  // computes fork + sum of per-branch deltas.
  ASSERT_TRUE(PutCommit(session_.get(), "cnt", "10").ok());

  auto s2 = store_->CreateSession();
  auto t1 = store_->Begin(session_.get());
  auto t2 = store_->Begin(s2.get());
  ASSERT_TRUE(t1.ok() && t2.ok());
  std::string v;
  ASSERT_TRUE((*t1)->Get("cnt", &v).ok());
  ASSERT_TRUE((*t1)->Put("cnt", std::to_string(std::stoi(v) + 5)).ok());
  ASSERT_TRUE((*t2)->Get("cnt", &v).ok());
  ASSERT_TRUE((*t2)->Put("cnt", std::to_string(std::stoi(v) + 7)).ok());
  ASSERT_TRUE((*t1)->Commit().ok());
  ASSERT_TRUE((*t2)->Commit().ok());
  ASSERT_EQ(store_->dag()->Leaves().size(), 2u);

  auto merger = store_->CreateSession();
  auto m = store_->BeginMerge(merger.get());
  ASSERT_TRUE(m.ok());
  ASSERT_EQ((*m)->mode(), Transaction::Mode::kMerge);
  std::vector<StateId> parents = (*m)->parents();
  ASSERT_EQ(parents.size(), 2u);

  auto forks = (*m)->FindForkPoints(parents);
  ASSERT_TRUE(forks.ok()) << forks.status().ToString();
  ASSERT_EQ(forks->size(), 1u);

  std::string fork_val;
  ASSERT_TRUE((*m)->GetForId("cnt", (*forks)[0], &fork_val).ok());
  EXPECT_EQ(fork_val, "10");

  int result = std::stoi(fork_val);
  for (StateId p : parents) {
    std::string branch_val;
    ASSERT_TRUE((*m)->GetForId("cnt", p, &branch_val).ok());
    result += std::stoi(branch_val) - std::stoi(fork_val);
  }
  EXPECT_EQ(result, 22);  // 10 + 5 + 7
  ASSERT_TRUE((*m)->Put("cnt", std::to_string(result)).ok());
  ASSERT_TRUE((*m)->Commit().ok());

  // The DAG reconverged; everyone now reads the merged value.
  EXPECT_EQ(store_->dag()->Leaves().size(), 1u);
  EXPECT_EQ(MustGet(session_.get(), "cnt"), "22");
  EXPECT_EQ(MustGet(s2.get(), "cnt"), "22");
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_merges_total"), 1u);
}

TEST_F(TxnTest, FindConflictWritesListsOnlyConflicts) {
  ASSERT_TRUE(PutCommit(session_.get(), "both", "0").ok());
  auto s2 = store_->CreateSession();
  auto t1 = store_->Begin(session_.get());
  auto t2 = store_->Begin(s2.get());
  ASSERT_TRUE(t1.ok() && t2.ok());
  std::string v;
  ASSERT_TRUE((*t1)->Get("both", &v).ok());
  ASSERT_TRUE((*t2)->Get("both", &v).ok());
  ASSERT_TRUE((*t1)->Put("both", "L").ok());
  ASSERT_TRUE((*t1)->Put("only_left", "L").ok());
  ASSERT_TRUE((*t2)->Put("both", "R").ok());
  ASSERT_TRUE((*t2)->Put("only_right", "R").ok());
  ASSERT_TRUE((*t1)->Commit().ok());
  ASSERT_TRUE((*t2)->Commit().ok());

  auto merger = store_->CreateSession();
  auto m = store_->BeginMerge(merger.get());
  ASSERT_TRUE(m.ok());
  auto conflicts = (*m)->FindConflictWrites((*m)->parents());
  ASSERT_TRUE(conflicts.ok());
  ASSERT_EQ(conflicts->size(), 1u);
  EXPECT_EQ((*conflicts)[0], "both");
  (*m)->Abort();
}

TEST_F(TxnTest, MergeWithSingleLeafDegenerates) {
  ASSERT_TRUE(PutCommit(session_.get(), "k", "v").ok());
  auto merger = store_->CreateSession();
  auto m = store_->BeginMerge(merger.get());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->parents().size(), 1u);
  ASSERT_TRUE((*m)->Put("k", "merged").ok());
  EXPECT_TRUE((*m)->Commit().ok());
  EXPECT_EQ(MustGet(session_.get(), "k"), "merged");
}

TEST_F(TxnTest, MergeThreeBranches) {
  ASSERT_TRUE(PutCommit(session_.get(), "n", "0").ok());
  std::vector<std::unique_ptr<ClientSession>> sessions;
  std::vector<TxnPtr> txns;
  for (int i = 0; i < 3; i++) {
    sessions.push_back(store_->CreateSession());
    auto t = store_->Begin(sessions.back().get());
    ASSERT_TRUE(t.ok());
    std::string v;
    ASSERT_TRUE((*t)->Get("n", &v).ok());
    ASSERT_TRUE((*t)->Put("n", std::to_string(i + 1)).ok());
    txns.push_back(std::move(*t));
  }
  for (auto& t : txns) ASSERT_TRUE(t->Commit().ok());
  ASSERT_EQ(store_->dag()->Leaves().size(), 3u);

  auto merger = store_->CreateSession();
  auto m = store_->BeginMerge(merger.get());
  ASSERT_TRUE(m.ok());
  ASSERT_EQ((*m)->parents().size(), 3u);
  auto forks = (*m)->FindForkPoints((*m)->parents());
  ASSERT_TRUE(forks.ok());
  std::string fork_val;
  ASSERT_TRUE((*m)->GetForId("n", (*forks)[0], &fork_val).ok());
  int total = 0;
  for (StateId p : (*m)->parents()) {
    std::string bv;
    ASSERT_TRUE((*m)->GetForId("n", p, &bv).ok());
    total += std::stoi(bv) - std::stoi(fork_val);
  }
  ASSERT_TRUE((*m)->Put("n", std::to_string(total)).ok());
  ASSERT_TRUE((*m)->Commit().ok());
  EXPECT_EQ(MustGet(session_.get(), "n"), "6");  // 1+2+3
  EXPECT_EQ(store_->dag()->Leaves().size(), 1u);
}

TEST_F(TxnTest, MaxParentsCapsMergeWidth) {
  ASSERT_TRUE(PutCommit(session_.get(), "z", "0").ok());
  // Begin all three before committing any, so all three read the same
  // state and the commits fork three ways.
  std::vector<std::unique_ptr<ClientSession>> sessions;
  std::vector<TxnPtr> txns;
  for (int i = 0; i < 3; i++) {
    sessions.push_back(store_->CreateSession());
    auto t = store_->Begin(sessions.back().get());
    ASSERT_TRUE(t.ok());
    std::string v;
    ASSERT_TRUE((*t)->Get("z", &v).ok());
    ASSERT_TRUE((*t)->Put("z", std::to_string(i)).ok());
    txns.push_back(std::move(*t));
  }
  for (auto& t : txns) ASSERT_TRUE(t->Commit().ok());
  ASSERT_EQ(store_->dag()->Leaves().size(), 3u);
  auto merger = store_->CreateSession();
  auto m = store_->BeginMerge(merger.get(), nullptr, 2);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->parents().size(), 2u);
  (*m)->Abort();
}

// ---- concurrency smoke -------------------------------------------------------

TEST_F(TxnTest, ConcurrentWritersAllCommitViaBranching) {
  constexpr int kThreads = 4;
  constexpr int kTxns = 50;
  std::vector<std::thread> threads;
  std::atomic<int> commits{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([this, t, &commits] {
      auto session = store_->CreateSession();
      for (int i = 0; i < kTxns; i++) {
        auto txn = store_->Begin(session.get());
        ASSERT_TRUE(txn.ok());
        std::string v;
        (*txn)->Get("shared", &v);
        ASSERT_TRUE(
            (*txn)->Put("shared", std::to_string(t * 1000 + i)).ok());
        Status s = (*txn)->Commit(SerializabilityEnd());
        ASSERT_TRUE(s.ok()) << s.ToString();  // branch, never abort
        commits.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(commits.load(), kThreads * kTxns);
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_commits_total"),
            static_cast<uint64_t>(kThreads * kTxns));
  EXPECT_EQ(store_->dag()->state_count(),
            static_cast<size_t>(kThreads * kTxns + 1));
}

// ---- backends ----------------------------------------------------------------

constexpr int kWorkloadKeys = 12;

// Reads every workload key at the tip of a single-leaf DAG.
std::map<std::string, std::string> ReadAllKeys(TardisStore* store) {
  std::map<std::string, std::string> out;
  auto reader = store->CreateSession();
  auto txn = store->Begin(reader.get());
  EXPECT_TRUE(txn.ok());
  for (int i = 0; i < kWorkloadKeys; i++) {
    const std::string key = "k" + std::to_string(i);
    std::string v;
    if ((*txn)->Get(key, &v).ok()) out[key] = v;
  }
  (*txn)->Abort();
  return out;
}

// Runs a scripted fork/merge workload on a fresh store opened with
// `options`, then merges down to one leaf. Returns every value the workload
// read, in order, and the final state of the keyspace.
std::pair<std::vector<std::string>, std::map<std::string, std::string>>
RunForkMergeWorkload(const TardisOptions& options) {
  auto store = TardisStore::Open(options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  std::vector<std::string> reads;
  Random rng(7);
  constexpr int kSessions = 3;
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (int i = 0; i < kSessions; i++) {
    sessions.push_back((*store)->CreateSession());
  }
  auto merger = (*store)->CreateSession();
  for (int round = 0; round < 120; round++) {
    if (rng.Bernoulli(0.15)) {
      while ((*store)->dag()->Leaves().size() > 1) {
        auto m = (*store)->BeginMerge(merger.get());
        EXPECT_TRUE(m.ok());
        auto conflicts = (*m)->FindConflictWrites((*m)->parents());
        EXPECT_TRUE(conflicts.ok());
        for (const std::string& key : *conflicts) {
          // Deterministic resolution: the largest branch value wins.
          std::string best;
          for (StateId p : (*m)->parents()) {
            std::string v;
            if ((*m)->GetForId(key, p, &v).ok() && v > best) best = v;
          }
          reads.push_back(best);
          EXPECT_TRUE((*m)->Put(key, best).ok());
        }
        EXPECT_TRUE((*m)->Commit().ok());
      }
    } else {
      // One writer, or two concurrent ones that fork when both read the
      // key the other writes.
      const int writers = rng.Bernoulli(0.5) ? 2 : 1;
      const int first = static_cast<int>(rng.Uniform(kSessions));
      std::vector<TxnPtr> txns;
      for (int w = 0; w < writers; w++) {
        auto txn = (*store)->Begin(sessions[(first + w) % kSessions].get());
        EXPECT_TRUE(txn.ok());
        txns.push_back(std::move(*txn));
      }
      for (int w = 0; w < writers; w++) {
        const std::string key =
            "k" + std::to_string(rng.Uniform(kWorkloadKeys));
        std::string v;
        txns[w]->Get(key, &v);  // NotFound leaves v empty
        reads.push_back(v);
        EXPECT_TRUE(txns[w]->Put(key, v + "." + std::to_string(round)).ok());
      }
      for (TxnPtr& txn : txns) EXPECT_TRUE(txn->Commit().ok());
    }
  }
  EXPECT_GT((*store)->metrics()->CounterTotal("tardis_txn_forks_total"), 0u);
  EXPECT_GT((*store)->metrics()->CounterTotal("tardis_txn_merges_total"), 0u);
  while ((*store)->dag()->Leaves().size() > 1) {
    auto m = (*store)->BeginMerge(merger.get());
    EXPECT_TRUE(m.ok());
    EXPECT_TRUE((*m)->Commit().ok());
  }
  EXPECT_TRUE((*store)->Flush().ok());
  return {reads, ReadAllKeys(store->get())};
}

// Each RecordBackend opens a store that reports it and owns a record store.
TEST(TrieStoreIntegration, BackendSelectionAndIntrospection) {
  const std::string dir = ::testing::TempDir() + "tardis_txn_select_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  for (RecordBackend backend :
       {RecordBackend::kMem, RecordBackend::kTrie, RecordBackend::kBTree}) {
    TardisOptions options;
    options.backend = backend;
    if (backend == RecordBackend::kBTree) options.dir = dir;
    auto store = TardisStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_STREQ((*store)->backend_name(), RecordBackendName(backend));
    EXPECT_NE((*store)->record_store(), nullptr);
  }
  std::filesystem::remove_all(dir);
}

// The trie backend keeps versions in the key-version map like mem, so the
// scripted fork/merge workload must read the same values on both.
TEST(TrieStoreIntegration, TrieFastPathMatchesMemBackend) {
  TardisOptions mem;
  TardisOptions trie;
  trie.backend = RecordBackend::kTrie;
  const auto mem_result = RunForkMergeWorkload(mem);
  EXPECT_FALSE(mem_result.second.empty());
  EXPECT_EQ(RunForkMergeWorkload(trie), mem_result);
}

// The same workload on a durable btree store reads what mem reads, and
// reads the final state again after a reopen (values then load lazily
// from its record store).
TEST(TxnBackendTest, ForkMergeWorkloadReadsMatchOnBTreeAndAfterReopen) {
  const std::string dir = ::testing::TempDir() + "tardis_txn_backends_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  TardisOptions btree;
  btree.backend = RecordBackend::kBTree;
  btree.dir = dir;

  const auto mem_result = RunForkMergeWorkload(TardisOptions());
  EXPECT_EQ(RunForkMergeWorkload(btree), mem_result);

  auto store = TardisStore::Open(btree);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(ReadAllKeys(store->get()), mem_result.second);
  store->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tardis
