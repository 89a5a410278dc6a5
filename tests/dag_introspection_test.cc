// Tests for DAG introspection (DebugString / ToDot) and the structured
// findForkPoints of Table 2.

#include <gtest/gtest.h>

#include "core/tardis_store.h"

namespace tardis {
namespace {

StatePtr Extend(StateDag* dag, const StatePtr& parent) {
  std::lock_guard<std::mutex> guard(dag->Lock());
  return dag->CreateStateLocked({parent}, dag->NextLocalGuid(), KeySet(),
                                false);
}

TEST(DagIntrospectionTest, DebugStringListsStates) {
  StateDag dag;
  StatePtr s1 = Extend(&dag, dag.root());
  StatePtr a = Extend(&dag, s1);
  StatePtr b = Extend(&dag, s1);
  const std::string dump = dag.DebugString();
  EXPECT_NE(dump.find("state 0"), std::string::npos);
  EXPECT_NE(dump.find("state " + std::to_string(a->id())), std::string::npos);
  EXPECT_NE(dump.find("LEAF"), std::string::npos);
  EXPECT_NE(dump.find("promotion table: 0"), std::string::npos);
  // Fork entries appear in the printed paths.
  EXPECT_NE(dump.find("(" + std::to_string(s1->id()) + ",1)"),
            std::string::npos);
}

TEST(DagIntrospectionTest, ToDotHasEdges) {
  StateDag dag;
  StatePtr s1 = Extend(&dag, dag.root());
  StatePtr s2 = Extend(&dag, s1);
  const std::string dot = dag.ToDot();
  EXPECT_NE(dot.find("digraph tardis"), std::string::npos);
  EXPECT_NE(dot.find("s0 -> s" + std::to_string(s1->id())),
            std::string::npos);
  EXPECT_NE(dot.find("s" + std::to_string(s1->id()) + " -> s" +
                     std::to_string(s2->id())),
            std::string::npos);
}

TEST(DagIntrospectionTest, StructuredForkPointsTwoBranches) {
  StateDag dag;
  StatePtr s1 = Extend(&dag, dag.root());
  StatePtr a = Extend(&dag, s1);
  StatePtr b = Extend(&dag, s1);
  auto forks = dag.FindForkPoints({a, b});
  ASSERT_EQ(forks.size(), 1u);
  EXPECT_EQ(forks[0]->id(), s1->id());
}

TEST(DagIntrospectionTest, StructuredForkPointsNestedForks) {
  // s1 forks into (a-branch, b-branch); a-branch forks again into a1/a2.
  // The fork structure of {a1, a2, b} is: overall fork s1, plus the
  // nested fork at a.
  StateDag dag;
  StatePtr s1 = Extend(&dag, dag.root());
  StatePtr a = Extend(&dag, s1);
  StatePtr b = Extend(&dag, s1);
  StatePtr a1 = Extend(&dag, a);
  StatePtr a2 = Extend(&dag, a);

  auto forks = dag.FindForkPoints({a1, a2, b});
  ASSERT_EQ(forks.size(), 2u);
  EXPECT_EQ(forks[0]->id(), s1->id());  // overall fork first
  EXPECT_EQ(forks[1]->id(), a->id());   // nested fork
}

TEST(DagIntrospectionTest, TransactionApiExposesStructuredForks) {
  auto store = TardisStore::Open(TardisOptions{});
  ASSERT_TRUE(store.ok());
  auto seed = (*store)->CreateSession();
  {
    auto txn = (*store)->Begin(seed.get());
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("x", "0").ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }
  // Three-way fork.
  std::vector<std::unique_ptr<ClientSession>> sessions;
  std::vector<TxnPtr> txns;
  for (int i = 0; i < 3; i++) {
    sessions.push_back((*store)->CreateSession());
    auto t = (*store)->Begin(sessions.back().get());
    ASSERT_TRUE(t.ok());
    std::string v;
    ASSERT_TRUE((*t)->Get("x", &v).ok());
    ASSERT_TRUE((*t)->Put("x", std::to_string(i)).ok());
    txns.push_back(std::move(*t));
  }
  for (auto& t : txns) ASSERT_TRUE(t->Commit().ok());

  auto merger = (*store)->CreateSession();
  auto m = (*store)->BeginMerge(merger.get());
  ASSERT_TRUE(m.ok());
  auto forks = (*m)->FindForkPoints((*m)->parents());
  ASSERT_TRUE(forks.ok());
  // All three branches fork at the same state: one fork point.
  ASSERT_EQ(forks->size(), 1u);
  std::string v;
  ASSERT_TRUE((*m)->GetForId("x", (*forks)[0], &v).ok());
  EXPECT_EQ(v, "0");
  (*m)->Abort();
}

}  // namespace
}  // namespace tardis
