// Tests for the garbage collector: ceilings, the three-pass DAG
// compression of Figure 8, record promotion/pruning, and correctness of
// reads across GC.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/tardis_store.h"
#include "util/random.h"

namespace tardis {
namespace {

class GcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TardisOptions options;  // in-memory
    auto store = TardisStore::Open(options);
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    session_ = store_->CreateSession();
  }

  void PutCommit(ClientSession* s, const std::string& k,
                 const std::string& v) {
    auto txn = store_->Begin(s);
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put(k, v).ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }

  std::string MustGet(ClientSession* s, const std::string& k) {
    auto txn = store_->Begin(s);
    EXPECT_TRUE(txn.ok());
    std::string v;
    Status st = (*txn)->Get(k, &v);
    EXPECT_TRUE(st.ok()) << k << ": " << st.ToString();
    (*txn)->Abort();
    return v;
  }

  std::unique_ptr<TardisStore> store_;
  std::unique_ptr<ClientSession> session_;
};

TEST_F(GcTest, NoCeilingNoCompression) {
  for (int i = 0; i < 10; i++) PutCommit(session_.get(), "k", std::to_string(i));
  GcStats stats = store_->RunGarbageCollection();
  EXPECT_EQ(stats.states_deleted, 0u);
  EXPECT_EQ(store_->dag()->state_count(), 11u);
}

TEST_F(GcTest, CeilingCompressesLinearChain) {
  for (int i = 0; i < 20; i++) {
    PutCommit(session_.get(), "k" + std::to_string(i), "v");
  }
  ASSERT_EQ(store_->dag()->state_count(), 21u);
  store_->PlaceCeiling(session_.get());
  GcStats stats = store_->RunGarbageCollection();
  // Everything above the last commit is an interior chain state: all of
  // root..s19 delete except those needed (the ceiling state itself is not
  // marked).
  EXPECT_GE(stats.states_deleted, 19u);
  EXPECT_LE(store_->dag()->state_count(), 2u);
  // The surviving tip still answers every key.
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(MustGet(session_.get(), "k" + std::to_string(i)), "v");
  }
}

TEST_F(GcTest, RecordPruningDropsSupersededVersions) {
  for (int i = 0; i < 50; i++) PutCommit(session_.get(), "hot", std::to_string(i));
  EXPECT_EQ(store_->kvmap()->version_count(), 50u);
  store_->PlaceCeiling(session_.get());
  GcStats stats = store_->RunGarbageCollection();
  EXPECT_GT(stats.versions_pruned, 40u);
  // Only the latest (and possibly one promoted) version remains.
  EXPECT_LE(store_->kvmap()->version_count(), 2u);
  EXPECT_EQ(MustGet(session_.get(), "hot"), "49");
}

TEST_F(GcTest, ForkPointsSurviveCompression) {
  // Build a fork, advance both branches, put a ceiling on one side: the
  // fork point must survive so the branches stay mergeable.
  PutCommit(session_.get(), "base", "0");
  auto s2 = store_->CreateSession();
  auto t1 = store_->Begin(session_.get());
  auto t2 = store_->Begin(s2.get());
  ASSERT_TRUE(t1.ok() && t2.ok());
  std::string v;
  ASSERT_TRUE((*t1)->Get("base", &v).ok());
  ASSERT_TRUE((*t2)->Get("base", &v).ok());
  ASSERT_TRUE((*t1)->Put("base", "L").ok());
  ASSERT_TRUE((*t2)->Put("base", "R").ok());
  ASSERT_TRUE((*t1)->Commit().ok());
  ASSERT_TRUE((*t2)->Commit().ok());
  for (int i = 0; i < 5; i++) {
    PutCommit(session_.get(), "left" + std::to_string(i), "x");
    PutCommit(s2.get(), "right" + std::to_string(i), "y");
  }
  const size_t before = store_->dag()->state_count();
  store_->PlaceCeiling(session_.get());
  store_->PlaceCeiling(s2.get());
  GcStats stats = store_->RunGarbageCollection();
  EXPECT_GT(stats.states_deleted, 0u);
  EXPECT_LT(store_->dag()->state_count(), before);

  // Merge still works after compression.
  auto merger = store_->CreateSession();
  auto m = store_->BeginMerge(merger.get());
  ASSERT_TRUE(m.ok());
  ASSERT_EQ((*m)->parents().size(), 2u);
  auto forks = (*m)->FindForkPoints((*m)->parents());
  ASSERT_TRUE(forks.ok()) << forks.status().ToString();
  std::string fv;
  ASSERT_TRUE((*m)->GetForId("base", (*forks)[0], &fv).ok());
  ASSERT_TRUE((*m)->Put("base", "merged").ok());
  ASSERT_TRUE((*m)->Commit().ok());
  EXPECT_EQ(MustGet(session_.get(), "base"), "merged");
}

TEST_F(GcTest, PinnedReadStatesAreNotCollected) {
  for (int i = 0; i < 10; i++) PutCommit(session_.get(), "k", std::to_string(i));
  // Hold an open transaction pinning the current tip.
  auto pin_session = store_->CreateSession();
  auto pinned = store_->Begin(pin_session.get());
  ASSERT_TRUE(pinned.ok());
  const StateId pinned_id = (*pinned)->parents()[0];

  for (int i = 10; i < 20; i++) PutCommit(session_.get(), "k", std::to_string(i));
  store_->PlaceCeiling(session_.get());
  store_->RunGarbageCollection();

  // The pinned state must still resolve to itself and serve reads.
  StatePtr s = store_->dag()->Resolve(pinned_id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->id(), pinned_id);
  std::string v;
  EXPECT_TRUE((*pinned)->Get("k", &v).ok());
  EXPECT_EQ(v, "9");
  (*pinned)->Abort();
}

TEST_F(GcTest, PromotedIdsStillResolveForGetForId) {
  PutCommit(session_.get(), "k", "old");
  const StateId old_id = session_->last_commit()->id();
  for (int i = 0; i < 10; i++) PutCommit(session_.get(), "k", std::to_string(i));
  store_->PlaceCeiling(session_.get());
  store_->RunGarbageCollection();

  // The old state was compressed away; its id resolves to the heir, and
  // getForID returns the heir's view.
  auto txn = store_->Begin(session_.get());
  ASSERT_TRUE(txn.ok());
  std::string v;
  Status s = (*txn)->GetForId("k", old_id, &v);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(v, "9");
  (*txn)->Abort();
}

TEST_F(GcTest, RepeatedGcIsIdempotent) {
  for (int i = 0; i < 30; i++) PutCommit(session_.get(), "k", std::to_string(i));
  store_->PlaceCeiling(session_.get());
  store_->RunGarbageCollection();
  const size_t after_first = store_->dag()->state_count();
  GcStats second = store_->RunGarbageCollection();
  EXPECT_EQ(second.states_deleted, 0u);
  EXPECT_EQ(store_->dag()->state_count(), after_first);
}

TEST_F(GcTest, BackgroundGcThreadRuns) {
  store_->StartGcThread(10);
  for (int i = 0; i < 200; i++) {
    PutCommit(session_.get(), "k", std::to_string(i));
    if (i % 50 == 49) store_->PlaceCeiling(session_.get());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  store_->StopGcThread();
  EXPECT_GT(store_->gc()->TotalStats().states_deleted, 0u);
  EXPECT_EQ(MustGet(session_.get(), "k"), "199");
}

TEST_F(GcTest, WriterConcurrentWithGc) {
  store_->StartGcThread(5);
  for (int i = 0; i < 500; i++) {
    PutCommit(session_.get(), "k" + std::to_string(i % 7), std::to_string(i));
    if (i % 20 == 19) store_->PlaceCeiling(session_.get());
  }
  store_->StopGcThread();
  // Latest values survive whatever the GC did.
  for (int k = 0; k < 7; k++) {
    int latest = -1;
    for (int i = 0; i < 500; i++) {
      if (i % 7 == k) latest = i;
    }
    EXPECT_EQ(MustGet(session_.get(), "k" + std::to_string(k)),
              std::to_string(latest));
  }
}

TEST_F(GcTest, SupersededVersionPrunedAfterHeirCompressed) {
  // Chain root -> W(k) -> V(x) -> H(k). The first run deletes W into V
  // while an open transaction pins V, so W's version of k stays: it is
  // the one V sees. Once V is deleted into H, which rewrote k, W's version
  // is superseded and must go, although V itself never wrote k.
  PutCommit(session_.get(), "k", "w");
  PutCommit(session_.get(), "x", "v");
  auto pin = store_->Begin(session_.get());  // pins V, the session tip
  ASSERT_TRUE(pin.ok());
  PutCommit(session_.get(), "k", "h");
  store_->PlaceCeiling(session_.get());
  EXPECT_EQ(store_->RunGarbageCollection().states_deleted, 1u);  // W
  EXPECT_EQ(store_->kvmap()->Versions("k").size(), 2u);
  std::string v;
  ASSERT_TRUE((*pin)->Get("k", &v).ok());
  EXPECT_EQ(v, "w");
  (*pin)->Abort();

  EXPECT_EQ(store_->RunGarbageCollection().states_deleted, 1u);  // V
  store_->RunGarbageCollection();
  EXPECT_EQ(store_->kvmap()->Versions("k").size(), 1u);
  EXPECT_EQ(MustGet(session_.get(), "k"), "h");
  EXPECT_EQ(MustGet(session_.get(), "x"), "v");
}

// Values are zero-padded ticks of one clock, so a string comparison
// orders them in time.
std::string Tick(uint64_t t) {
  char buf[24];
  snprintf(buf, sizeof(buf), "%012llu", static_cast<unsigned long long>(t));
  return buf;
}

// Commits exactly on the transaction's read states. A merge that rippled
// past a commit made after its conflict search could overwrite that
// commit's newer value with an older one.
class NoRippleEnd : public EndConstraint {
 public:
  bool StepOk(const TxnContext&, const State&) const override {
    return false;
  }
  bool FinalOk(const TxnContext&, const State&) const override {
    return true;
  }
  std::string name() const override { return "NoRipple"; }
};

// One last-writer-wins merge of every leaf (no-op with a single leaf).
void MergeLww(TardisStore* store, ClientSession* session) {
  auto m = store->BeginMerge(session);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const std::vector<StateId> parents = (*m)->parents();
  if (parents.size() < 2) {
    (*m)->Abort();
    return;
  }
  auto forks = (*m)->FindForkPoints(parents);
  ASSERT_TRUE(forks.ok()) << forks.status().ToString();
  auto conflicts = (*m)->FindConflictWrites(parents);
  ASSERT_TRUE(conflicts.ok()) << conflicts.status().ToString();
  for (const std::string& key : *conflicts) {
    std::string merged;
    for (StateId p : parents) {
      std::string v;
      Status s = (*m)->GetForId(key, p, &v);
      ASSERT_TRUE(s.ok()) << key << "@" << p << ": " << s.ToString();
      merged = std::max(merged, v);
    }
    ASSERT_TRUE((*m)->Put(key, merged).ok());
  }
  Status s = (*m)->Commit(std::make_shared<NoRippleEnd>());
  ASSERT_TRUE(s.ok()) << s.ToString();
}

TEST_F(GcTest, PromotionRacesCommitsMergesAndResolves) {
  // A background GC every millisecond, with frequent ceilings, races
  // sessions that commit conflicting transactions, merge the branches
  // and read through ids the GC has promoted away. Each key has one
  // writing session, so its last acknowledged value is well defined; the
  // reads of other sessions' keys make the commits fork.
  constexpr int kSessions = 4;
  constexpr int kKeys = 16;
  constexpr int kTxns = 1000;
  constexpr int kMergeEvery = 16;
  constexpr int kCeilingEvery = 8;
  auto key = [](int k) { return "key" + std::to_string(k); };
  for (int k = 0; k < kKeys; k++) PutCommit(session_.get(), key(k), Tick(0));

  std::atomic<uint64_t> clock{1};
  std::vector<uint64_t> last(kKeys, 0);  // written by the key's owner
  store_->StartGcThread(1);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kSessions; w++) {
    threads.emplace_back([&, w] {
      auto session = store_->CreateSession();
      ready.fetch_add(1);
      while (ready.load() < kSessions) std::this_thread::yield();
      // (state id, key, tick) of this session's commits, oldest first.
      std::vector<std::tuple<StateId, int, uint64_t>> history;
      for (int i = 0; i < kTxns; i++) {
        const int own = w + kSessions * (i % (kKeys / kSessions));
        const int other = (own + 1 + i % (kKeys - 1)) % kKeys;
        auto txn = store_->Begin(session.get());
        ASSERT_TRUE(txn.ok()) << txn.status().ToString();
        std::string v;
        ASSERT_TRUE((*txn)->Get(key(other), &v).ok());
        ASSERT_TRUE((*txn)->Get(key(own), &v).ok());
        const uint64_t tick = clock.fetch_add(1);
        ASSERT_TRUE((*txn)->Put(key(own), Tick(tick)).ok());
        // An older commit of this session, which the GC has likely
        // compressed away: its id resolves to a descendant, which sees
        // that commit's write or a later one.
        if (history.size() >= 16) {
          const auto& [sid, k, t] = history[history.size() - 16];
          Status s = (*txn)->GetForId(key(k), sid, &v);
          ASSERT_TRUE(s.ok()) << "state " << sid << ": " << s.ToString();
          EXPECT_GE(v, Tick(t)) << "state " << sid;
        }
        Status s = (*txn)->Commit(SerializabilityEnd());
        ASSERT_TRUE(s.ok()) << s.ToString();
        last[own] = tick;
        history.emplace_back(session->last_commit()->id(), own, tick);
        if (i % kMergeEvery == kMergeEvery - 1) {
          MergeLww(store_.get(), session.get());
        }
        if (i % kCeilingEvery == kCeilingEvery - 1) {
          store_->PlaceCeiling(session.get());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  store_->StopGcThread();
  EXPECT_GT(store_->gc()->TotalStats().states_deleted, 0u);

  auto closer = store_->CreateSession();
  MergeLww(store_.get(), closer.get());
  ASSERT_EQ(store_->dag()->leaf_count(), 1u);
  for (int k = 0; k < kKeys; k++) {
    EXPECT_EQ(MustGet(closer.get(), key(k)), Tick(last[k])) << key(k);
  }
}

/// The store's tardis_dag_fork_path_max gauge.
double ForkPathMax(const TardisStore& store) {
  for (const obs::Sample& s : store.metrics()->Collect()) {
    if (s.name == "tardis_dag_fork_path_max") return s.gauge;
  }
  ADD_FAILURE() << "no tardis_dag_fork_path_max gauge";
  return 0;
}

/// One commit of `key` = `value` exactly on state `at`.
StateId CommitOn(TardisStore* store, ClientSession* session, StateId at,
                 const std::string& key, const std::string& value) {
  auto txn = store->Begin(session, StateIdBegin(at));
  EXPECT_TRUE(txn.ok()) << txn.status().ToString();
  if (!txn.ok()) return kInvalidStateId;
  EXPECT_TRUE((*txn)->Put(key, value).ok());
  Status s = (*txn)->Commit(std::make_shared<NoRippleEnd>());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return session->last_commit()->id();
}

TEST_F(GcTest, LadderCollapsesAndLeavesPaths) {
  // A ladder of fork points f1..fN: each f(i) has the next rung as its
  // first child and a side branch as its second, and one merge reconciles
  // the last rung and every side branch. Fig. 8 alone keeps every rung: a
  // rung has two children, the next rung and (once the side branch is
  // compressed into it) the merge.
  constexpr int kRungs = 8;
  auto side = store_->CreateSession();
  std::vector<StateId> rungs;
  StateId tip = store_->dag()->root()->id();
  for (int i = 0; i < kRungs; i++) {
    tip = CommitOn(store_.get(), session_.get(), tip, "hot", Tick(i));
    rungs.push_back(tip);
    if (i > 0) {
      CommitOn(store_.get(), side.get(), rungs[i - 1],
               "side" + std::to_string(i), "s");
    }
  }
  CommitOn(store_.get(), session_.get(), tip, "hot", Tick(kRungs));
  CommitOn(store_.get(), side.get(), rungs.back(), "side", "s");
  ASSERT_EQ(store_->dag()->leaf_count(), static_cast<size_t>(kRungs + 1));
  MergeLww(store_.get(), session_.get());
  ASSERT_EQ(store_->dag()->leaf_count(), 1u);
  PutCommit(session_.get(), "after", "a");
  const size_t before = store_->dag()->state_count();
  store_->PlaceCeiling(session_.get());
  GcStats total;
  for (int run = 0; run < 3; run++) {
    GcStats stats = store_->RunGarbageCollection();
    total.edges_dropped += stats.edges_dropped;
    total.forks_closed += stats.forks_closed;
  }
  EXPECT_GT(total.edges_dropped, 0u);
  EXPECT_EQ(total.forks_closed, static_cast<uint64_t>(kRungs));
  for (StateId rung : rungs) {
    EXPECT_NE(store_->dag()->Resolve(rung)->id(), rung) << "rung " << rung;
  }
  EXPECT_LT(store_->dag()->state_count(), before);
  EXPECT_EQ(store_->dag()->state_count(), 2u);  // the root and the tip

  PutCommit(session_.get(), "next", "n");
  for (const ForkPoint& fp :
       session_->last_commit()->fork_path()->points()) {
    EXPECT_EQ(std::find(rungs.begin(), rungs.end(), fp.state), rungs.end())
        << "path still names rung " << fp.state;
  }
  size_t dead = 0;
  for (const VersionEntry& v : store_->kvmap()->Versions("hot")) {
    dead += v.state->deleted.load();
  }
  EXPECT_LE(dead, 1u);
  EXPECT_EQ(MustGet(session_.get(), "hot"), Tick(kRungs));
  for (int i = 1; i < kRungs; i++) {
    EXPECT_EQ(MustGet(session_.get(), "side" + std::to_string(i)), "s");
  }
}

TEST_F(GcTest, ForkPathStaysBounded) {
  // Four sessions with overlapping transactions on a few keys: after each
  // merge they all read the merged state, and their commits fork it. A
  // merge every 64 commits, a ceiling every 256 and a GC run every 512.
  // Without closed forks leaving the paths, every merge unions its
  // parents' paths and the longest keeps growing.
  constexpr int kSessions = 4;
  constexpr int kCommits = 20000;
  constexpr int kKeys = 8;
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (int i = 0; i < kSessions; i++) {
    sessions.push_back(store_->CreateSession());
  }
  auto key = [](uint64_t k) { return "k" + std::to_string(k); };
  for (int k = 0; k < kKeys; k++) PutCommit(session_.get(), key(k), Tick(0));
  Random rng(21);
  double longest = 0;
  int commits = 0;
  while (commits < kCommits) {
    std::vector<TxnPtr> txns;
    for (auto& session : sessions) {
      auto txn = store_->Begin(session.get());
      ASSERT_TRUE(txn.ok()) << txn.status().ToString();
      const std::string k = key(rng.Uniform(kKeys));
      std::string v;
      (*txn)->Get(k, &v);
      ASSERT_TRUE((*txn)->Put(k, Tick(commits)).ok());
      txns.push_back(std::move(*txn));
    }
    for (int i = 0; i < kSessions; i++) {
      ASSERT_TRUE(txns[i]->Commit().ok());
      commits++;
      if (commits % 64 == 0) MergeLww(store_.get(), sessions[i].get());
      if (commits % 256 == 0) store_->PlaceCeiling(sessions[i].get());
    }
    if (commits % 512 < kSessions) {
      store_->RunGarbageCollection();
      longest = std::max(longest, ForkPathMax(*store_));
    }
  }
  EXPECT_GT(store_->metrics()->CounterTotal("tardis_txn_forks_total"), 500u);
  EXPECT_GT(store_->gc()->TotalStats().forks_closed, 0u);
  // Measured: at most 48 here; when nothing leaves, 1,700 by the end.
  EXPECT_LT(longest, 100) << "fork paths grow with uptime";
}

TEST_F(GcTest, ReadersWritersAndPathPruningRace) {
  // Reader threads (Begin/Get/GetForId), writer threads whose overlapping
  // commits fork (retroactive annotation) and merge, and a GC thread that
  // collapses ladders and prunes paths, all at once. A reader also writes
  // its own key, so "never older than its own last write" is defined.
  constexpr int kKeys = 8;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kRounds = 3000;
  auto key = [](int k) { return "key" + std::to_string(k); };
  for (int k = 0; k < kKeys; k++) PutCommit(session_.get(), key(k), Tick(0));
  for (int r = 0; r < kReaders; r++) {
    PutCommit(session_.get(), "own" + std::to_string(r), Tick(0));
  }
  std::atomic<uint64_t> clock{1};
  store_->StartGcThread(1);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      auto session = store_->CreateSession();
      for (int i = 0; i < kRounds; i++) {
        auto txn = store_->Begin(session.get());
        ASSERT_TRUE(txn.ok()) << txn.status().ToString();
        const int k = (w + i) % kKeys;
        std::string v;
        ASSERT_TRUE((*txn)->Get(key(k), &v).ok());
        ASSERT_TRUE((*txn)->Put(key(k), Tick(clock.fetch_add(1))).ok());
        ASSERT_TRUE((*txn)->Commit().ok());
        if (i % 16 == 15) MergeLww(store_.get(), session.get());
        if (i % 8 == 7) store_->PlaceCeiling(session.get());
      }
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      auto session = store_->CreateSession();
      const std::string own = "own" + std::to_string(r);
      std::string last;  // this reader's last committed write of `own`
      for (int i = 0; i < kRounds; i++) {
        auto txn = store_->Begin(session.get());
        ASSERT_TRUE(txn.ok()) << txn.status().ToString();
        std::string v;
        for (int k = 0; k < kKeys; k++) {
          Status s = (*txn)->Get(key(k), &v);
          ASSERT_TRUE(s.ok()) << key(k) << ": " << s.ToString();
        }
        Status s = (*txn)->GetForId(key(i % kKeys), (*txn)->parents()[0], &v);
        ASSERT_TRUE(s.ok()) << s.ToString();
        if (!last.empty()) {
          ASSERT_TRUE((*txn)->Get(own, &v).ok());
          EXPECT_GE(v, last);
          ASSERT_TRUE((*txn)->GetForId(own, (*txn)->parents()[0], &v).ok());
          EXPECT_GE(v, last);
        }
        if (i % 4 == 0) {
          const std::string tick = Tick(clock.fetch_add(1));
          ASSERT_TRUE((*txn)->Put(own, tick).ok());
          ASSERT_TRUE((*txn)->Commit().ok());
          last = tick;
        } else {
          (*txn)->Abort();
        }
        if (i % 32 == 31) store_->PlaceCeiling(session.get());
      }
    });
  }
  for (auto& t : threads) t.join();
  store_->StopGcThread();
  const GcStats gc = store_->gc()->TotalStats();
  EXPECT_GT(gc.states_deleted, 0u);
  EXPECT_GT(gc.forks_closed, 0u);
}

}  // namespace
}  // namespace tardis
