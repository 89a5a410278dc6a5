// Tests for the key-version map: topological ordering, branch-aware
// visibility, version removal.

#include <gtest/gtest.h>

#include "core/key_version_map.h"
#include "core/state_dag.h"

namespace tardis {
namespace {

std::shared_ptr<const std::string> Val(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

StatePtr Commit(StateDag* dag, const StatePtr& parent) {
  std::lock_guard<std::mutex> guard(dag->Lock());
  return dag->CreateStateLocked({parent}, dag->NextLocalGuid(), KeySet(),
                                false);
}

class KvMapTest : public ::testing::Test {
 protected:
  StateDag dag_;
  KeyVersionMap map_;
};

TEST_F(KvMapTest, EmptyMapNotFound) {
  auto r = map_.GetVisible("nope", *dag_.root());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(map_.key_count(), 0u);
}

TEST_F(KvMapTest, SingleVersionVisibleToDescendants) {
  StatePtr s1 = Commit(&dag_, dag_.root());
  StatePtr s2 = Commit(&dag_, s1);
  ASSERT_TRUE(map_.AddVersion("k", s1, Val("v1")));

  auto r = map_.GetVisible("k", *s2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->value, "v1");
  // Not visible above the writing state.
  EXPECT_TRUE(map_.GetVisible("k", *dag_.root()).status().IsNotFound());
}

TEST_F(KvMapTest, MostRecentOnBranchWins) {
  StatePtr s1 = Commit(&dag_, dag_.root());
  StatePtr s2 = Commit(&dag_, s1);
  StatePtr s3 = Commit(&dag_, s2);
  map_.AddVersion("k", s1, Val("old"));
  map_.AddVersion("k", s3, Val("new"));

  auto at3 = map_.GetVisible("k", *s3);
  ASSERT_TRUE(at3.ok());
  EXPECT_EQ(*at3->value, "new");
  auto at2 = map_.GetVisible("k", *s2);
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(*at2->value, "old");
}

TEST_F(KvMapTest, BranchesSeeOnlyTheirVersions) {
  StatePtr s1 = Commit(&dag_, dag_.root());
  map_.AddVersion("k", s1, Val("base"));
  StatePtr left = Commit(&dag_, s1);
  StatePtr right = Commit(&dag_, s1);
  map_.AddVersion("k", left, Val("L"));
  map_.AddVersion("k", right, Val("R"));

  auto l = map_.GetVisible("k", *left);
  auto r = map_.GetVisible("k", *right);
  ASSERT_TRUE(l.ok() && r.ok());
  EXPECT_EQ(*l->value, "L");
  EXPECT_EQ(*r->value, "R");
  // At the fork itself, the pre-fork version is visible.
  auto f = map_.GetVisible("k", *s1);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f->value, "base");
}

TEST_F(KvMapTest, InsertionOrderIrrelevantForTopologicalOrder) {
  // Insert a lower-id version after a higher-id one: the sorted skip list
  // must still return the most recent first.
  StatePtr s1 = Commit(&dag_, dag_.root());
  StatePtr s2 = Commit(&dag_, s1);
  map_.AddVersion("k", s2, Val("newer"));
  map_.AddVersion("k", s1, Val("older"));
  auto r = map_.GetVisible("k", *s2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->value, "newer");
  auto versions = map_.Versions("k");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_GT(versions[0].sid, versions[1].sid);
}

TEST_F(KvMapTest, DuplicateStateVersionRejected) {
  StatePtr s1 = Commit(&dag_, dag_.root());
  EXPECT_TRUE(map_.AddVersion("k", s1, Val("a")));
  EXPECT_FALSE(map_.AddVersion("k", s1, Val("b")));
  EXPECT_EQ(map_.version_count(), 1u);
}

TEST_F(KvMapTest, RemoveVersion) {
  StatePtr s1 = Commit(&dag_, dag_.root());
  StatePtr s2 = Commit(&dag_, s1);
  map_.AddVersion("k", s1, Val("a"));
  map_.AddVersion("k", s2, Val("b"));
  EXPECT_TRUE(map_.RemoveVersion("k", s2->id()));
  EXPECT_FALSE(map_.RemoveVersion("k", s2->id()));
  auto r = map_.GetVisible("k", *s2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->value, "a");
  EXPECT_EQ(map_.version_count(), 1u);
}

TEST_F(KvMapTest, ForEachKeyVisitsAll) {
  StatePtr s1 = Commit(&dag_, dag_.root());
  map_.AddVersion("a", s1, Val("1"));
  map_.AddVersion("b", s1, Val("2"));
  map_.AddVersion("c", s1, Val("3"));
  int n = 0;
  map_.ForEachKey([&](const std::string&) { n++; });
  EXPECT_EQ(n, 3);
  EXPECT_EQ(map_.key_count(), 3u);
}

TEST_F(KvMapTest, ManyVersionsOnHotKey) {
  StatePtr s = dag_.root();
  std::vector<StatePtr> chain;
  for (int i = 0; i < 500; i++) {
    s = Commit(&dag_, s);
    chain.push_back(s);
    map_.AddVersion("hot", s, Val(std::to_string(i)));
  }
  // Every historical state reads its own version.
  for (int i : {0, 100, 250, 499}) {
    auto r = map_.GetVisible("hot", *chain[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r->value, std::to_string(i));
  }
}

}  // namespace
}  // namespace tardis
