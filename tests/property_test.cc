// Property-based tests: randomized workloads checked against independent
// models.
//
//  * sequential equivalence: one session on TARDiS behaves exactly like a
//    std::map, under every isolation configuration;
//  * branch isolation: concurrent forking sessions each see exactly their
//    own branch's writes (a per-session model map);
//  * fork-path soundness: DescendantCheck agrees with explicit graph
//    reachability on randomly grown DAGs with merges, and keeps agreeing,
//    as does getForID, while GC cycles collapse fork-point ladders and
//    prune closed forks from the paths;
//  * fork-point search: FindForkPoint(s) and FindConflictWrites agree with
//    full reachability on random DAGs with merges, GC splices and
//    recovered ids, and every edge goes from a smaller id to a larger one;
//  * counter convergence: random increments across branches + merges add
//    up exactly;
//  * GC transparency: visible state is unchanged by compression/pruning;
//  * recovery equivalence: committed state survives close/reopen.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/tardis_store.h"
#include "util/random.h"

namespace tardis {
namespace {

// ---- sequential equivalence -------------------------------------------------

// The end constraint is a std::string, not a const char*, so gtest prints
// the parameter by value and the test names do not carry an address.
class SequentialEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(SequentialEquivalence, MatchesMapModel) {
  const uint64_t seed = std::get<0>(GetParam());
  const std::string which_end = std::get<1>(GetParam());
  EndConstraintPtr end =
      which_end == "ser" ? SerializabilityEnd()
      : which_end == "si"
          ? SnapshotIsolationEnd()
          : AndEnd({SerializabilityEnd(), NoBranchingEnd()});

  auto store = TardisStore::Open(TardisOptions{});
  ASSERT_TRUE(store.ok());
  auto session = (*store)->CreateSession();
  std::map<std::string, std::string> model;
  Random rng(seed);

  for (int round = 0; round < 120; round++) {
    auto txn = (*store)->Begin(session.get());
    ASSERT_TRUE(txn.ok());
    std::map<std::string, std::string> txn_writes;
    const int ops = 1 + rng.Uniform(6);
    bool aborted = false;
    for (int i = 0; i < ops; i++) {
      const std::string key = "k" + std::to_string(rng.Uniform(12));
      if (rng.Bernoulli(0.5)) {
        const std::string value = "v" + std::to_string(rng.Next() % 1000);
        ASSERT_TRUE((*txn)->Put(key, value).ok());
        txn_writes[key] = value;
      } else {
        std::string got;
        Status s = (*txn)->Get(key, &got);
        auto w = txn_writes.find(key);
        auto m = model.find(key);
        if (w != txn_writes.end()) {
          ASSERT_TRUE(s.ok());
          EXPECT_EQ(got, w->second);
        } else if (m != model.end()) {
          ASSERT_TRUE(s.ok()) << key;
          EXPECT_EQ(got, m->second);
        } else {
          EXPECT_TRUE(s.IsNotFound()) << key;
        }
      }
    }
    if (rng.Bernoulli(0.15)) {
      (*txn)->Abort();
      aborted = true;
    } else {
      // Single session: constraints never make a solo client abort.
      ASSERT_TRUE((*txn)->Commit(end).ok());
    }
    if (!aborted) {
      for (auto& [k, v] : txn_writes) model[k] = v;
    }
  }
  // Final check of every key.
  auto txn = (*store)->Begin(session.get());
  ASSERT_TRUE(txn.ok());
  for (int k = 0; k < 12; k++) {
    const std::string key = "k" + std::to_string(k);
    std::string got;
    Status s = (*txn)->Get(key, &got);
    auto m = model.find(key);
    if (m != model.end()) {
      ASSERT_TRUE(s.ok()) << key;
      EXPECT_EQ(got, m->second);
    } else {
      EXPECT_TRUE(s.IsNotFound());
    }
  }
  (*txn)->Abort();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SequentialEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(std::string("ser"), std::string("si"),
                                         std::string("ser-nb"))),
    [](const auto& info) {
      return std::get<1>(info.param) == "ser-nb"
                 ? "SerNB_" + std::to_string(std::get<0>(info.param))
                 : std::get<1>(info.param) + "_" +
                       std::to_string(std::get<0>(info.param));
    });

// ---- branch isolation ----------------------------------------------------------

class BranchIsolation : public ::testing::TestWithParam<int> {};

TEST_P(BranchIsolation, EachSessionSeesExactlyItsBranch) {
  auto store = TardisStore::Open(TardisOptions{});
  ASSERT_TRUE(store.ok());
  Random rng(GetParam());

  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<ClientSession>> sessions;
  // Per-session model: the values its branch should see.
  std::vector<std::map<std::string, std::string>> models(kSessions);
  // Seed a common prefix.
  {
    auto boot = (*store)->CreateSession();
    auto txn = (*store)->Begin(boot.get());
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("shared", "base").ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }
  for (int s = 0; s < kSessions; s++) {
    sessions.push_back((*store)->CreateSession());
    models[s]["shared"] = "base";
  }

  // Force a 4-way fork: all sessions read the same tip, all write the
  // same key, all commit.
  {
    std::vector<TxnPtr> txns;
    for (int s = 0; s < kSessions; s++) {
      auto txn = (*store)->Begin(sessions[s].get());
      ASSERT_TRUE(txn.ok());
      std::string v;
      ASSERT_TRUE((*txn)->Get("shared", &v).ok());
      const std::string mine = "branch" + std::to_string(s);
      ASSERT_TRUE((*txn)->Put("shared", mine).ok());
      models[s]["shared"] = mine;
      txns.push_back(std::move(*txn));
    }
    for (auto& t : txns) ASSERT_TRUE(t->Commit().ok());
  }

  // Random per-branch activity; each session must keep seeing exactly its
  // model (inter-branch isolation + read-my-writes).
  for (int round = 0; round < 200; round++) {
    const int s = rng.Uniform(kSessions);
    auto txn = (*store)->Begin(sessions[s].get());
    ASSERT_TRUE(txn.ok());
    const std::string key = "k" + std::to_string(rng.Uniform(6));
    if (rng.Bernoulli(0.5)) {
      const std::string value =
          "s" + std::to_string(s) + "_" + std::to_string(round);
      ASSERT_TRUE((*txn)->Put(key, value).ok());
      ASSERT_TRUE((*txn)->Commit().ok());
      models[s][key] = value;
    } else {
      std::string got;
      Status st = (*txn)->Get(key, &got);
      auto m = models[s].find(key);
      if (m != models[s].end()) {
        ASSERT_TRUE(st.ok()) << "session " << s << " key " << key;
        EXPECT_EQ(got, m->second) << "session " << s << " key " << key;
      } else {
        EXPECT_TRUE(st.IsNotFound()) << "session " << s << " key " << key;
      }
      (*txn)->Abort();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchIsolation, ::testing::Values(7, 8, 9));

// ---- fork-path soundness ----------------------------------------------------------

bool Reachable(const State* from, const State* to) {
  // Is `from` an ancestor-or-self of `to`? Explicit upward BFS.
  std::deque<const State*> work{to};
  std::set<const State*> seen;
  while (!work.empty()) {
    const State* s = work.front();
    work.pop_front();
    if (s == from) return true;
    if (!seen.insert(s).second) continue;
    for (const StatePtr& p : s->parents()) work.push_back(p.get());
  }
  return false;
}

class ForkPathSoundness : public ::testing::TestWithParam<int> {};

TEST_P(ForkPathSoundness, DescendantCheckMatchesReachability) {
  StateDag dag;
  Random rng(GetParam());
  std::vector<StatePtr> states{dag.root()};

  for (int i = 0; i < 150; i++) {
    std::lock_guard<std::mutex> guard(dag.Lock());
    if (states.size() >= 2 && rng.Bernoulli(0.15)) {
      // Merge two random distinct states.
      StatePtr a = states[rng.Uniform(states.size())];
      StatePtr b = states[rng.Uniform(states.size())];
      if (a == b) continue;
      states.push_back(
          dag.CreateStateLocked({a, b}, dag.NextLocalGuid(), KeySet(), true));
    } else {
      StatePtr parent = states[rng.Uniform(states.size())];
      states.push_back(dag.CreateStateLocked({parent}, dag.NextLocalGuid(),
                                             KeySet(), false));
    }
  }

  int positives = 0;
  for (int trial = 0; trial < 2000; trial++) {
    const State* a = states[rng.Uniform(states.size())].get();
    const State* b = states[rng.Uniform(states.size())].get();
    const bool expected = Reachable(a, b);
    positives += expected;
    EXPECT_EQ(StateDag::DescendantCheck(*a, *b), expected)
        << "a=" << a->id() << " path=" << a->fork_path()->ToString()
        << " b=" << b->id() << " path=" << b->fork_path()->ToString();
  }
  // Sanity: the test exercised both outcomes.
  EXPECT_GT(positives, 50);
  EXPECT_LT(positives, 1950);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkPathSoundness,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---- fork-path soundness under GC --------------------------------------------------

/// Commits exactly on the read state: a fork wherever that state already
/// has a child.
class ExactEnd : public EndConstraint {
 public:
  bool StepOk(const TxnContext&, const State&) const override {
    return false;
  }
  bool FinalOk(const TxnContext&, const State&) const override {
    return true;
  }
  std::string name() const override { return "Exact"; }
};

/// A store driven through random forks, merges, ladders, ceilings and GC
/// cycles, beside a model of every state ever committed: its ancestors
/// and the values it wrote.
class GcModel {
 public:
  explicit GcModel(uint64_t seed) : rng_(seed) {
    auto store = TardisStore::Open(TardisOptions{});
    EXPECT_TRUE(store.ok());
    store_ = std::move(*store);
    for (int i = 0; i < 3; i++) sessions_.push_back(store_->CreateSession());
    const StateId root = store_->dag()->root()->id();
    ancestors_[root] = {root};
  }

  TardisStore* store() { return store_.get(); }
  ClientSession* session() {
    return sessions_[rng_.Uniform(sessions_.size())].get();
  }
  std::string Key() { return "k" + std::to_string(rng_.Uniform(kKeys)); }
  std::string Value() {
    char buf[24];
    snprintf(buf, sizeof(buf), "%08llu", static_cast<unsigned long long>(++tick_));
    return buf;
  }
  Random& rng() { return rng_; }

  /// Records the commit `session` just made.
  void Record(ClientSession* session,
              const std::map<std::string, std::string>& writes) {
    const StatePtr& s = session->last_commit();
    std::set<StateId>& anc = ancestors_[s->id()];
    anc.insert(s->id());
    for (const StatePtr& p : s->parents()) {
      anc.insert(ancestors_[p->id()].begin(), ancestors_[p->id()].end());
    }
    wrote_[s->id()] = writes;
  }

  /// One commit of a random key on exactly state `at` (kInvalidStateId:
  /// wherever the session's begin constraint puts it).
  StateId Commit(ClientSession* session, StateId at) {
    auto txn = at == kInvalidStateId
                   ? store_->Begin(session)
                   : store_->Begin(session, StateIdBegin(at));
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    if (!txn.ok()) return kInvalidStateId;
    std::map<std::string, std::string> writes{{Key(), Value()}};
    for (const auto& [k, v] : writes) EXPECT_TRUE((*txn)->Put(k, v).ok());
    Status s = at == kInvalidStateId
                   ? (*txn)->Commit()
                   : (*txn)->Commit(std::make_shared<ExactEnd>());
    EXPECT_TRUE(s.ok()) << s.ToString();
    Record(session, writes);
    return session->last_commit()->id();
  }

  /// A last-writer-wins merge of up to `max_parents` leaves (0: all).
  void Merge(size_t max_parents) {
    ClientSession* session = this->session();
    auto m = store_->BeginMerge(session, AnyBegin(), max_parents);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    const std::vector<StateId> parents = (*m)->parents();
    if (parents.size() < 2) {
      (*m)->Abort();
      return;
    }
    auto conflicts = (*m)->FindConflictWrites(parents);
    ASSERT_TRUE(conflicts.ok());
    std::map<std::string, std::string> writes;
    for (const std::string& key : *conflicts) {
      std::string merged;
      for (StateId p : parents) {
        std::string v;
        if ((*m)->GetForId(key, p, &v).ok()) merged = std::max(merged, v);
      }
      ASSERT_TRUE((*m)->Put(key, merged).ok());
      writes[key] = merged;
    }
    ASSERT_TRUE((*m)->Commit(std::make_shared<ExactEnd>()).ok());
    Record(session, writes);
  }

  /// A live state no ceiling covers yet (a possible read state).
  StateId Unmarked() {
    std::vector<StateId> ids;
    std::lock_guard<std::mutex> guard(store_->dag()->Lock());
    for (const StatePtr& s : store_->dag()->AllStatesLocked()) {
      if (!s->marked.load()) ids.push_back(s->id());
    }
    return ids[rng_.Uniform(ids.size())];
  }

  /// Rungs r1..rn, each forked by a side branch, then one merge of every
  /// leaf.
  void Ladder() {
    ClientSession* chain = session();
    ClientSession* side = session();
    StateId rung = Unmarked();
    const int rungs = 2 + static_cast<int>(rng_.Uniform(4));
    for (int i = 0; i < rungs; i++) {
      const StateId next = Commit(chain, rung);
      Commit(side, rung);
      rung = next;
    }
    Merge(0);
  }

  /// After a GC cycle: Fig. 7 against reachability for every writer (a
  /// live state or a deleted version owner) and live reader, and GetForId
  /// at every live state against the model's newest visible write.
  void Check() {
    std::vector<StatePtr> live;
    {
      std::lock_guard<std::mutex> guard(store_->dag()->Lock());
      live = store_->dag()->AllStatesLocked();
    }
    std::vector<StatePtr> writers = live;
    for (int k = 0; k < kKeys; k++) {
      for (const VersionEntry& v :
           store_->kvmap()->Versions("k" + std::to_string(k))) {
        if (v.state->deleted.load()) writers.push_back(v.state);
      }
    }
    for (const StatePtr& w : writers) {
      for (const StatePtr& r : live) {
        const bool expected = ancestors_[r->id()].count(w->id()) > 0;
        ASSERT_EQ(StateDag::DescendantCheck(*w, *r), expected)
            << "writer " << w->id() << (w->deleted.load() ? " (deleted)" : "")
            << " path=" << w->fork_path()->ToString() << " reader "
            << r->id() << " path=" << r->fork_path()->ToString();
      }
    }
    auto txn = store_->Begin(sessions_[0].get(), AnyBegin());
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    for (const StatePtr& g : live) {
      for (int k = 0; k < kKeys; k++) {
        const std::string key = "k" + std::to_string(k);
        std::string expected;
        for (StateId a : ancestors_[g->id()]) {
          auto w = wrote_[a].find(key);
          if (w != wrote_[a].end()) expected = w->second;  // ids ascend
        }
        std::string got;
        Status s = (*txn)->GetForId(key, g->id(), &got);
        if (expected.empty()) {
          EXPECT_TRUE(s.IsNotFound()) << key << "@" << g->id();
        } else {
          ASSERT_TRUE(s.ok()) << key << "@" << g->id() << ": " << s.ToString();
          EXPECT_EQ(got, expected) << key << "@" << g->id()
                                   << (g->marked.load() ? " (marked)" : "");
        }
      }
    }
    (*txn)->Abort();
  }

 private:
  static constexpr int kKeys = 6;
  Random rng_;
  uint64_t tick_ = 0;
  std::unique_ptr<TardisStore> store_;
  std::vector<std::unique_ptr<ClientSession>> sessions_;
  std::map<StateId, std::set<StateId>> ancestors_;  // ancestors-or-self
  std::map<StateId, std::map<std::string, std::string>> wrote_;
};

class ForkPathSoundnessUnderGc : public ::testing::TestWithParam<int> {};

TEST_P(ForkPathSoundnessUnderGc, Fig7AndGetForIdMatchReachability) {
  GcModel model(GetParam());
  int cycles = 0;
  for (int op = 0; op < 300 && !::testing::Test::HasFatalFailure(); op++) {
    const double dice = model.rng().NextDouble();
    if (dice < 0.35) {
      model.Commit(model.session(), kInvalidStateId);
    } else if (dice < 0.55) {
      model.Commit(model.session(), model.Unmarked());
    } else if (dice < 0.62) {
      model.Ladder();
    } else if (dice < 0.74) {
      model.Merge(model.rng().Uniform(4));
    } else if (dice < 0.88) {
      model.store()->PlaceCeiling(model.session());
    } else {
      model.store()->RunGarbageCollection();
      model.Check();
      cycles++;
    }
  }
  model.store()->RunGarbageCollection();
  model.Check();
  const GcStats gc = model.store()->gc()->TotalStats();
  EXPECT_GT(gc.states_deleted, 0u);
  EXPECT_GT(gc.forks_closed, 0u);
  EXPECT_GT(cycles, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkPathSoundnessUnderGc,
                         ::testing::Values(5, 6, 7, 8));

// ---- fork-point search ------------------------------------------------------------

/// Reference FindForkPoint: the largest-id state reachable upward from
/// every tip, from full reachability over the live states.
StatePtr ReferenceForkPoint(const std::vector<StatePtr>& live,
                            const std::vector<StatePtr>& tips) {
  StatePtr best;
  for (const StatePtr& s : live) {
    bool common = true;
    for (const StatePtr& t : tips) {
      if (!Reachable(s.get(), t.get())) {
        common = false;
        break;
      }
    }
    if (common && (!best || s->id() > best->id())) best = s;
  }
  return best;
}

/// Reference FindConflictWrites: per tip, the own and inherited writes of
/// every state reachable from it through states above the fork.
KeySet ReferenceConflicts(const StatePtr& fork,
                          const std::vector<StatePtr>& tips) {
  std::map<std::string, int> branches;
  for (const StatePtr& tip : tips) {
    std::set<std::string> keys;
    std::set<const State*> seen;
    std::deque<const State*> work{tip.get()};
    while (!work.empty()) {
      const State* s = work.front();
      work.pop_front();
      if (s->id() <= fork->id() || !seen.insert(s).second) continue;
      for (const KeySet* ks : {&s->write_set(), &s->inherited_writes()}) {
        keys.insert(ks->keys().begin(), ks->keys().end());
      }
      for (const StatePtr& p : s->parents()) work.push_back(p.get());
    }
    for (const std::string& k : keys) branches[k]++;
  }
  KeySet out;
  for (const auto& [k, n] : branches) {
    if (n >= 2) out.Add(k);
  }
  return out;
}

class ForkPointSearch : public ::testing::TestWithParam<int> {};

TEST_P(ForkPointSearch, MatchesLargestIdCommonAncestor) {
  StateDag dag(3);
  Random rng(GetParam());
  std::vector<StatePtr> live{dag.root()};
  auto pick = [&]() { return live[rng.Uniform(live.size())]; };
  auto writes = [&]() {
    KeySet ws;
    const int n = static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < n; i++) ws.Add("k" + std::to_string(rng.Uniform(6)));
    return ws;
  };
  uint64_t recovered_seq = 1000;

  for (int i = 0; i < 220; i++) {
    std::lock_guard<std::mutex> guard(dag.Lock());
    const double op = rng.NextDouble();
    if (op < 0.35) {
      // Chain: extend a leaf.
      std::vector<StatePtr> leaves;
      for (const StatePtr& s : live) {
        if (s->children().empty()) leaves.push_back(s);
      }
      const StatePtr& leaf = leaves[rng.Uniform(leaves.size())];
      live.push_back(
          dag.CreateStateLocked({leaf}, dag.NextLocalGuid(), writes(), false));
    } else if (op < 0.55) {
      // Fork: a child of any state.
      live.push_back(
          dag.CreateStateLocked({pick()}, dag.NextLocalGuid(), writes(), false));
    } else if (op < 0.70) {
      // Merge of 2-4 distinct states.
      std::vector<StatePtr> parents;
      const size_t want = 2 + rng.Uniform(3);
      for (int tries = 0; tries < 10 && parents.size() < want; tries++) {
        StatePtr p = pick();
        if (std::find(parents.begin(), parents.end(), p) == parents.end()) {
          parents.push_back(p);
        }
      }
      if (parents.size() < 2) continue;
      live.push_back(
          dag.CreateStateLocked(parents, dag.NextLocalGuid(), writes(), true));
    } else if (op < 0.78) {
      // Merge a state with one of its own ancestors.
      StatePtr s = pick();
      StatePtr anc = s;
      const int hops = 1 + static_cast<int>(rng.Uniform(4));
      for (int h = 0; h < hops && !anc->parents().empty(); h++) {
        anc = anc->parents()[rng.Uniform(anc->parents().size())];
      }
      if (anc == s) continue;
      live.push_back(
          dag.CreateStateLocked({s, anc}, dag.NextLocalGuid(), writes(), true));
    } else if (op < 0.90) {
      // Splice out a non-root state with a single child, as GC does.
      std::vector<StatePtr> victims;
      for (const StatePtr& s : live) {
        if (!s->parents().empty() && s->children().size() == 1) {
          victims.push_back(s);
        }
      }
      if (victims.empty()) continue;
      StatePtr victim = victims[rng.Uniform(victims.size())];
      StatePtr heir = victim->children()[0];
      dag.DeleteStateLocked(victim, heir);
      heir->inherited_writes().Union(victim->write_set());
      live.erase(std::find(live.begin(), live.end(), victim));
    } else {
      // A recovered state under an explicit id, past a gap of ids.
      const StateId id = dag.max_id() + 1 + rng.Uniform(5);
      live.push_back(dag.CreateStateWithIdLocked(
          id, {pick()}, GlobalStateId{9, ++recovered_seq}, writes(), false));
    }
  }

  // The invariant the descending-id walk relies on.
  for (const StatePtr& s : live) {
    for (const StatePtr& c : s->children()) {
      EXPECT_LT(s->id(), c->id()) << "edge " << s->id() << "->" << c->id();
    }
  }

  for (int trial = 0; trial < 150; trial++) {
    std::vector<StatePtr> tips;
    const size_t k = 1 + rng.Uniform(4);
    for (size_t i = 0; i < k; i++) tips.push_back(pick());

    const StatePtr overall = ReferenceForkPoint(live, tips);
    ASSERT_NE(overall, nullptr);
    EXPECT_EQ(dag.FindForkPoint(tips), overall);

    std::vector<StatePtr> expected;
    if (k == 1) {
      expected = tips;
    } else {
      for (size_t i = 0; i < k; i++) {
        for (size_t j = i + 1; j < k; j++) {
          StatePtr f = ReferenceForkPoint(live, {tips[i], tips[j]});
          if (std::find(expected.begin(), expected.end(), f) ==
              expected.end()) {
            expected.push_back(f);
          }
        }
      }
      std::sort(expected.begin(), expected.end(),
                [](const StatePtr& a, const StatePtr& b) {
                  return a->id() > b->id();
                });
      expected.erase(std::remove(expected.begin(), expected.end(), overall),
                     expected.end());
      expected.insert(expected.begin(), overall);
    }
    EXPECT_EQ(dag.FindForkPoints(tips), expected) << "trial " << trial;

    EXPECT_EQ(dag.FindConflictWrites(overall, tips).keys(),
              ReferenceConflicts(overall, tips).keys())
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkPointSearch,
                         ::testing::Values(3, 14, 15, 92, 65, 35, 89, 79));

// ---- counter convergence ------------------------------------------------------------

class CounterConvergence : public ::testing::TestWithParam<int> {};

TEST_P(CounterConvergence, MergesPreserveTotalDelta) {
  auto store = TardisStore::Open(TardisOptions{});
  ASSERT_TRUE(store.ok());
  Random rng(GetParam());

  constexpr int kSessions = 3;
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (int s = 0; s < kSessions; s++) {
    sessions.push_back((*store)->CreateSession());
  }
  auto merger = (*store)->CreateSession();

  int64_t expected = 0;
  auto increment = [&](ClientSession* session, int64_t delta) {
    auto txn = (*store)->Begin(session);
    ASSERT_TRUE(txn.ok());
    std::string raw;
    int64_t value = 0;
    Status s = (*txn)->Get("cnt", &raw);
    if (s.ok()) value = std::stoll(raw);
    ASSERT_TRUE((*txn)->Put("cnt", std::to_string(value + delta)).ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  };
  auto merge_all = [&] {
    while ((*store)->dag()->Leaves().size() > 1) {
      auto m = (*store)->BeginMerge(merger.get());
      ASSERT_TRUE(m.ok());
      auto parents = (*m)->parents();
      auto forks = (*m)->FindForkPoints(parents);
      ASSERT_TRUE(forks.ok());
      auto value_at = [&](StateId sid) {
        std::string raw;
        return (*m)->GetForId("cnt", sid, &raw).ok() ? std::stoll(raw)
                                                     : int64_t{0};
      };
      int64_t fork_value = value_at((*forks)[0]);
      int64_t result = fork_value;
      for (StateId p : parents) result += value_at(p) - fork_value;
      ASSERT_TRUE((*m)->Put("cnt", std::to_string(result)).ok());
      ASSERT_TRUE((*m)->Commit().ok());
    }
  };

  for (int round = 0; round < 150; round++) {
    if (rng.Bernoulli(0.1)) {
      merge_all();
    } else {
      const int s = rng.Uniform(kSessions);
      const int64_t delta =
          static_cast<int64_t>(rng.Uniform(9)) - 4;  // [-4, 4]
      increment(sessions[s].get(), delta);
      expected += delta;
    }
  }
  merge_all();

  auto txn = (*store)->Begin(merger.get());
  ASSERT_TRUE(txn.ok());
  std::string raw;
  Status s = (*txn)->Get("cnt", &raw);
  const int64_t final_value = s.ok() ? std::stoll(raw) : 0;
  (*txn)->Abort();
  EXPECT_EQ(final_value, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterConvergence,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707));

// ---- GC transparency ---------------------------------------------------------------

class GcTransparency : public ::testing::TestWithParam<int> {};

TEST_P(GcTransparency, VisibleStateUnchangedByGc) {
  auto store = TardisStore::Open(TardisOptions{});
  ASSERT_TRUE(store.ok());
  Random rng(GetParam());

  constexpr int kSessions = 3;
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (int s = 0; s < kSessions; s++) {
    sessions.push_back((*store)->CreateSession());
  }
  for (int round = 0; round < 300; round++) {
    const int s = rng.Uniform(kSessions);
    auto txn = (*store)->Begin(sessions[s].get());
    ASSERT_TRUE(txn.ok());
    const std::string key = "k" + std::to_string(rng.Uniform(10));
    std::string v;
    (*txn)->Get(key, &v);
    ASSERT_TRUE(
        (*txn)->Put(key, "r" + std::to_string(round)).ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }

  // Snapshot each session's view of all keys.
  auto view = [&](ClientSession* session) {
    std::map<std::string, std::string> out;
    auto txn = (*store)->Begin(session);
    EXPECT_TRUE(txn.ok());
    for (int k = 0; k < 10; k++) {
      const std::string key = "k" + std::to_string(k);
      std::string v;
      if ((*txn)->Get(key, &v).ok()) out[key] = v;
    }
    (*txn)->Abort();
    return out;
  };
  std::vector<std::map<std::string, std::string>> before;
  for (auto& s : sessions) before.push_back(view(s.get()));

  const size_t states_before = (*store)->dag()->state_count();
  for (auto& s : sessions) (*store)->PlaceCeiling(s.get());
  (*store)->RunGarbageCollection();
  EXPECT_LT((*store)->dag()->state_count(), states_before);

  for (int s = 0; s < kSessions; s++) {
    EXPECT_EQ(view(sessions[s].get()), before[s]) << "session " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcTransparency,
                         ::testing::Values(13, 17, 19));

// ---- recovery equivalence -------------------------------------------------------------

class RecoveryEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryEquivalence, CommittedStateSurvivesReopen) {
  const std::string dir =
      ::testing::TempDir() + "tardis_prop_recovery_" +
      std::to_string(GetParam()) + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  Random rng(GetParam());
  std::map<std::string, std::string> model;

  {
    TardisOptions options;
    options.dir = dir;
    options.backend = RecordBackend::kBTree;
    options.flush_mode = Wal::FlushMode::kSync;
    auto store = TardisStore::Open(options);
    ASSERT_TRUE(store.ok());
    auto session = (*store)->CreateSession();
    for (int round = 0; round < 100; round++) {
      auto txn = (*store)->Begin(session.get());
      ASSERT_TRUE(txn.ok());
      const int ops = 1 + rng.Uniform(4);
      std::map<std::string, std::string> writes;
      for (int i = 0; i < ops; i++) {
        const std::string key = "k" + std::to_string(rng.Uniform(15));
        const std::string value = "v" + std::to_string(rng.Next() % 10000);
        ASSERT_TRUE((*txn)->Put(key, value).ok());
        writes[key] = value;
      }
      if (rng.Bernoulli(0.2)) {
        (*txn)->Abort();
      } else {
        ASSERT_TRUE((*txn)->Commit().ok());
        for (auto& [k, v] : writes) model[k] = v;
      }
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }

  TardisOptions options;
  options.dir = dir;
  options.backend = RecordBackend::kBTree;
  auto store = TardisStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto session = (*store)->CreateSession();
  auto txn = (*store)->Begin(session.get());
  ASSERT_TRUE(txn.ok());
  for (int k = 0; k < 15; k++) {
    const std::string key = "k" + std::to_string(k);
    std::string got;
    Status s = (*txn)->Get(key, &got);
    auto m = model.find(key);
    if (m != model.end()) {
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(got, m->second) << key;
    } else {
      EXPECT_TRUE(s.IsNotFound()) << key;
    }
  }
  (*txn)->Abort();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryEquivalence,
                         ::testing::Values(31, 37, 41));

}  // namespace
}  // namespace tardis
