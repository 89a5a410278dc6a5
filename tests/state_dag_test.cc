// Tests for the consistency layer's data structures: fork points, fork
// paths, the descendant check of Figure 7, retroactive fork annotation,
// merge-state paths, and the promotion machinery used by DAG compression.
//
// Several tests rebuild the exact DAG of the paper's Figure 5 and check
// the stated visibility outcomes.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <vector>

#include "core/state_dag.h"
#include "core/types.h"

namespace tardis {
namespace {

// Convenience: append a state with one parent and the given write keys.
StatePtr Commit(StateDag* dag, const StatePtr& parent,
                std::vector<std::string> writes = {}) {
  KeySet ws;
  for (auto& k : writes) ws.Add(k);
  std::lock_guard<std::mutex> guard(dag->Lock());
  return dag->CreateStateLocked({parent}, dag->NextLocalGuid(), std::move(ws),
                                false);
}

StatePtr Merge(StateDag* dag, const std::vector<StatePtr>& parents,
               std::vector<std::string> writes = {}) {
  KeySet ws;
  for (auto& k : writes) ws.Add(k);
  std::lock_guard<std::mutex> guard(dag->Lock());
  return dag->CreateStateLocked(parents, dag->NextLocalGuid(), std::move(ws),
                                true);
}

TEST(ForkPathTest, AddKeepsSortedUnique) {
  ForkPath p;
  p.Add({3, 1});
  p.Add({1, 2});
  p.Add({3, 1});  // duplicate
  p.Add({1, 1});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.points()[0], (ForkPoint{1, 1}));
  EXPECT_EQ(p.points()[1], (ForkPoint{1, 2}));
  EXPECT_EQ(p.points()[2], (ForkPoint{3, 1}));
}

TEST(ForkPathTest, SubsetSemantics) {
  ForkPath a, b;
  a.Add({1, 1});
  b.Add({1, 1});
  b.Add({3, 2});
  EXPECT_TRUE(a.SubsetOf(b));
  EXPECT_FALSE(b.SubsetOf(a));
  EXPECT_TRUE(a.SubsetOf(a));
  EXPECT_TRUE(ForkPath().SubsetOf(a));  // empty path is ancestor of all
}

TEST(ForkPathTest, UnionMerges) {
  ForkPath a, b;
  a.Add({1, 2});
  a.Add({4, 1});
  b.Add({1, 2});
  b.Add({4, 2});
  a.Union(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_TRUE(b.SubsetOf(a));
}

TEST(ForkPathTest, StoredAtExactSize) {
  ForkPath a, b;
  for (uint32_t i = 0; i < 9; i++) a.Add({i * 2, 1});
  EXPECT_EQ(a.capacity(), a.size());
  for (uint32_t i = 0; i < 9; i++) b.Add({i * 3, 1});
  a.Union(b);
  EXPECT_EQ(a.size(), 15u);  // 9 + 9 minus {0, 6, 12}
  EXPECT_EQ(a.capacity(), a.size());
}

TEST(ForkPathTest, PrunedReaderCountsClosedEntriesAsPresent) {
  // Fork 5 is closed: the reader's path was pruned of it while the
  // writer's still names it.
  ForkPath writer, reader;
  for (ForkPath* p : {&writer, &reader}) {
    p->Add({2, 1});
    p->Add({5, 1});
    p->Add({5, 2});
  }
  reader.Add({7, 1});
  reader.Prune(std::make_shared<const ClosedForks>(ClosedForks{5}));
  ASSERT_EQ(reader.size(), 2u);
  EXPECT_EQ(reader.capacity(), reader.size());
  EXPECT_TRUE(writer.SubsetOf(reader));
  // No early-out on sizes: the longer writer path still passes.
  EXPECT_GT(writer.size(), reader.size());
  // An entry of an open fork missing from the reader still fails.
  writer.Add({3, 2});
  EXPECT_FALSE(writer.SubsetOf(reader));
  // A path that never heard of the closed fork does not forgive it.
  ForkPath unpruned;
  unpruned.Add({2, 1});
  EXPECT_FALSE(reader.SubsetOf(unpruned));
}

TEST(ForkPathTest, NamesAndHoldsEveryBranch) {
  ForkPath p;
  p.Add({4, 1});
  p.Add({4, 2});
  p.Add({9, 3});
  EXPECT_TRUE(p.Names(ClosedForks{1, 9}));
  EXPECT_FALSE(p.Names(ClosedForks{1, 5, 10}));
  EXPECT_TRUE(p.HoldsEveryBranch(4, 2));
  EXPECT_FALSE(p.HoldsEveryBranch(4, 3));
  EXPECT_FALSE(p.HoldsEveryBranch(9, 3));  // lacks (9,1) and (9,2)
}

TEST(KeySetTest, IntersectsAndUnion) {
  KeySet a, b;
  a.Add("x");
  a.Add("y");
  b.Add("z");
  EXPECT_FALSE(a.Intersects(b));
  b.Add("y");
  EXPECT_TRUE(a.Intersects(b));
  a.Union(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.Contains("z"));
}

TEST(StateDagTest, RootExists) {
  StateDag dag;
  ASSERT_NE(dag.root(), nullptr);
  EXPECT_EQ(dag.root()->id(), 0u);
  EXPECT_TRUE(dag.root()->fork_path()->empty());
  EXPECT_EQ(dag.state_count(), 1u);
  auto leaves = dag.Leaves();
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0]->id(), 0u);
}

TEST(StateDagTest, LinearChainHasEmptyForkPaths) {
  StateDag dag;
  StatePtr s = dag.root();
  for (int i = 0; i < 5; i++) s = Commit(&dag, s);
  EXPECT_TRUE(s->fork_path()->empty());
  EXPECT_EQ(dag.Leaves().size(), 1u);
  EXPECT_TRUE(StateDag::DescendantCheck(*dag.root(), *s));
  EXPECT_FALSE(StateDag::DescendantCheck(*s, *dag.root()));
}

TEST(StateDagTest, ForkCreatesEntriesRetroactively) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr s2 = Commit(&dag, s1);  // first child of s1: path empty so far
  EXPECT_TRUE(s2->fork_path()->empty());

  StatePtr s3 = Commit(&dag, s1);  // second child: s1 becomes a fork point
  // The new child carries (s1, 2); the existing child's subtree was
  // retroactively annotated with (s1, 1).
  ForkPath expect2, expect3;
  expect2.Add({s1->id(), 1});
  expect3.Add({s1->id(), 2});
  EXPECT_EQ(*s2->fork_path(), expect2);
  EXPECT_EQ(*s3->fork_path(), expect3);

  // Sibling branches must not see each other.
  EXPECT_FALSE(StateDag::DescendantCheck(*s2, *s3));
  EXPECT_FALSE(StateDag::DescendantCheck(*s3, *s2));
  // Both still see their common ancestor.
  EXPECT_TRUE(StateDag::DescendantCheck(*s1, *s2));
  EXPECT_TRUE(StateDag::DescendantCheck(*s1, *s3));
}

TEST(StateDagTest, RetroactiveAnnotationCoversSubtree) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr s2 = Commit(&dag, s1);
  StatePtr s2a = Commit(&dag, s2);
  StatePtr s2b = Commit(&dag, s2a);  // a little chain below the 1st child
  StatePtr s3 = Commit(&dag, s1);   // now fork s1

  ForkPoint first{s1->id(), 1};
  for (const StatePtr& s : {s2, s2a, s2b}) {
    EXPECT_TRUE(std::find(s->fork_path()->points().begin(),
                          s->fork_path()->points().end(),
                          first) != s->fork_path()->points().end());
  }
  // A state created on the annotated branch *after* the fork inherits it.
  StatePtr s2c = Commit(&dag, s2b);
  EXPECT_FALSE(StateDag::DescendantCheck(*s2c, *s3));
  EXPECT_FALSE(StateDag::DescendantCheck(*s3, *s2c));
  EXPECT_TRUE(StateDag::DescendantCheck(*s2, *s2c));
}

TEST(StateDagTest, ChainSharesOneForkPath) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr s = s1;
  for (int i = 0; i < 5; i++) {
    s = Commit(&dag, s);
    EXPECT_EQ(s->fork_path().get(), s1->fork_path().get());
  }
}

TEST(StateDagTest, ForkGivesFirstChildChainOneNewPath) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr a1 = Commit(&dag, s1);
  StatePtr a2 = Commit(&dag, a1);
  StatePtr a3 = Commit(&dag, a2);
  const ForkPath* before = s1->fork_path().get();
  ASSERT_EQ(a3->fork_path().get(), before);

  StatePtr b = Commit(&dag, s1);  // s1 becomes a fork point
  // The first child's chain moves to one new object; s1 keeps its own.
  EXPECT_EQ(s1->fork_path().get(), before);
  const ForkPath* annotated = a1->fork_path().get();
  EXPECT_NE(annotated, before);
  EXPECT_EQ(a2->fork_path().get(), annotated);
  EXPECT_EQ(a3->fork_path().get(), annotated);
  EXPECT_NE(b->fork_path().get(), annotated);
  EXPECT_EQ(annotated->capacity(), annotated->size());
  // Commits extending the chain keep sharing it.
  EXPECT_EQ(Commit(&dag, a3)->fork_path().get(), annotated);
  StatePtr m = Merge(&dag, {a3, b});
  EXPECT_EQ(m->fork_path()->capacity(), m->fork_path()->size());
}

TEST(StateDagTest, ThirdChildGetsSlotThree) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr a = Commit(&dag, s1);
  StatePtr b = Commit(&dag, s1);
  StatePtr c = Commit(&dag, s1);
  ForkPath pc;
  pc.Add({s1->id(), 3});
  EXPECT_EQ(*c->fork_path(), pc);
  EXPECT_FALSE(StateDag::DescendantCheck(*a, *c));
  EXPECT_FALSE(StateDag::DescendantCheck(*b, *c));
}

TEST(StateDagTest, MergeStateSeesBothBranches) {
  // Figure 5's s9 merges s5 and s6 (children of s4): its path is the
  // union {(1,2),(4,1),(4,2)} and both branches are visible from it.
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr s2 = Commit(&dag, s1);          // branch (1,1)
  StatePtr s4 = Commit(&dag, s1);          // branch (1,2)
  StatePtr s5 = Commit(&dag, s4);          // (1,2)(4,1) after fork below
  StatePtr s6 = Commit(&dag, s4);          // (1,2)(4,2)
  StatePtr s9 = Merge(&dag, {s5, s6});

  ForkPath expect9;
  expect9.Add({s1->id(), 2});
  expect9.Add({s4->id(), 1});
  expect9.Add({s4->id(), 2});
  EXPECT_EQ(*s9->fork_path(), expect9);
  EXPECT_TRUE(s9->is_merge());

  EXPECT_TRUE(StateDag::DescendantCheck(*s5, *s9));
  EXPECT_TRUE(StateDag::DescendantCheck(*s6, *s9));
  EXPECT_TRUE(StateDag::DescendantCheck(*s4, *s9));
  EXPECT_TRUE(StateDag::DescendantCheck(*s1, *s9));
  // The other top-level branch stays invisible.
  EXPECT_FALSE(StateDag::DescendantCheck(*s2, *s9));
  // The merge is not visible from its parents.
  EXPECT_FALSE(StateDag::DescendantCheck(*s9, *s5));
}

TEST(StateDagTest, LeavesTrackTips) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr a = Commit(&dag, s1);
  StatePtr b = Commit(&dag, s1);
  auto leaves = dag.Leaves();
  ASSERT_EQ(leaves.size(), 2u);
  // Most recent first.
  EXPECT_EQ(leaves[0]->id(), b->id());
  EXPECT_EQ(leaves[1]->id(), a->id());

  StatePtr m = Merge(&dag, {a, b});
  leaves = dag.Leaves();
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0]->id(), m->id());
}

TEST(StateDagTest, BfsFromLeavesVisitsMostRecentFirst) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr a = Commit(&dag, s1);
  StatePtr b = Commit(&dag, s1);
  std::vector<StateId> order;
  dag.BfsFromLeaves([&](const StatePtr& s) {
    order.push_back(s->id());
    return false;  // visit everything
  });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], b->id());
  EXPECT_EQ(order[1], a->id());
  EXPECT_EQ(order[2], s1->id());
  EXPECT_EQ(order[3], 0u);
}

TEST(StateDagTest, FindForkPointOfSiblings) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr a = Commit(&dag, s1);
  StatePtr a2 = Commit(&dag, a);
  StatePtr b = Commit(&dag, s1);
  StatePtr fork = dag.FindForkPoint({a2, b});
  ASSERT_NE(fork, nullptr);
  EXPECT_EQ(fork->id(), s1->id());
}

TEST(StateDagTest, FindForkPointSameBranchReturnsAncestor) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr s2 = Commit(&dag, s1);
  StatePtr fork = dag.FindForkPoint({s1, s2});
  ASSERT_NE(fork, nullptr);
  EXPECT_EQ(fork->id(), s1->id());
}

TEST(StateDagTest, FindForkPointThreeBranches) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr a = Commit(&dag, s1);
  StatePtr b = Commit(&dag, s1);
  StatePtr c = Commit(&dag, s1);
  StatePtr fork = dag.FindForkPoint({a, b, c});
  ASSERT_NE(fork, nullptr);
  EXPECT_EQ(fork->id(), s1->id());
}

TEST(StateDagTest, FindConflictWritesDetectsOverlap) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root(), {"base"});
  StatePtr a = Commit(&dag, s1, {"x", "shared"});
  StatePtr a2 = Commit(&dag, a, {"y"});
  StatePtr b = Commit(&dag, s1, {"shared", "z"});
  KeySet conflicts = dag.FindConflictWrites(s1, {a2, b});
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_TRUE(conflicts.Contains("shared"));
  // Writes at or above the fork don't count.
  EXPECT_FALSE(conflicts.Contains("base"));
}

TEST(StateDagTest, FindConflictWritesEmptyWhenDisjoint) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr a = Commit(&dag, s1, {"x"});
  StatePtr b = Commit(&dag, s1, {"y"});
  KeySet conflicts = dag.FindConflictWrites(s1, {a, b});
  EXPECT_TRUE(conflicts.empty());
}

TEST(StateDagTest, DeleteStatePromotesIdentity) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root(), {"k"});
  StatePtr s2 = Commit(&dag, s1, {"m"});
  StatePtr s3 = Commit(&dag, s2);

  {
    std::lock_guard<std::mutex> guard(dag.Lock());
    dag.DeleteStateLocked(s2, s3);
  }
  EXPECT_TRUE(s2->deleted.load());
  EXPECT_EQ(dag.state_count(), 3u);  // root, s1, s3
  // Resolve follows the promotion table.
  StatePtr r = dag.Resolve(s2->id());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id(), s3->id());
  // Write-set inheritance is the garbage collector's (batched) job, not
  // DeleteStateLocked's; the victim's own set is untouched.
  EXPECT_TRUE(s2->write_set().Contains("m"));
  EXPECT_FALSE(s3->write_set().Contains("m"));
  // The DAG stays connected: s1 -> s3.
  ASSERT_EQ(s1->children().size(), 1u);
  EXPECT_EQ(s1->children()[0]->id(), s3->id());
  ASSERT_EQ(s3->parents().size(), 1u);
  EXPECT_EQ(s3->parents()[0]->id(), s1->id());
}

TEST(StateDagTest, PromotionChainsResolve) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr s2 = Commit(&dag, s1);
  StatePtr s3 = Commit(&dag, s2);
  StatePtr s4 = Commit(&dag, s3);
  {
    std::lock_guard<std::mutex> guard(dag.Lock());
    dag.DeleteStateLocked(s2, s3);
    dag.DeleteStateLocked(s3, s4);
  }
  StatePtr r = dag.Resolve(s2->id());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id(), s4->id());
  EXPECT_EQ(dag.promotion_table_size(), 2u);
}

TEST(StateDagTest, GuidResolution) {
  StateDag dag(7);
  GlobalStateId guid = dag.NextLocalGuid();
  EXPECT_EQ(guid.site, 7u);
  EXPECT_EQ(guid.seq, 1u);
  StatePtr s;
  {
    std::lock_guard<std::mutex> guard(dag.Lock());
    s = dag.CreateStateLocked({dag.root()}, guid, KeySet(), false);
  }
  StatePtr r = dag.ResolveGuid(guid);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id(), s->id());
  EXPECT_EQ(dag.ResolveGuid({7, 999}), nullptr);
}

TEST(StateDagTest, RecoveryIdsAdvanceCounter) {
  StateDag dag;
  StatePtr s;
  {
    std::lock_guard<std::mutex> guard(dag.Lock());
    s = dag.CreateStateWithIdLocked(41, {dag.root()}, {0, 41}, KeySet(),
                                    false);
  }
  EXPECT_EQ(s->id(), 41u);
  // The next ordinary commit must get a larger id.
  StatePtr next = Commit(&dag, s);
  EXPECT_GT(next->id(), 41u);
}

TEST(StateDagDescendantCheckTest, Figure5Visibility) {
  // Rebuild the structure implied by Figure 5's fork-path table and check
  // each listed path plus the visibility claims in §6.1.3.
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr s2 = Commit(&dag, s1);   // (1,1)
  StatePtr s4 = Commit(&dag, s1);   // (1,2)
  StatePtr s3 = Commit(&dag, s2);   // (1,1) — single child, no new entry
  StatePtr s5 = Commit(&dag, s4);   // (1,2)(4,1) once s6 exists
  StatePtr s6 = Commit(&dag, s4);   // (1,2)(4,2)
  StatePtr s8 = Commit(&dag, s3);   // (1,1)(3,1) once s7 exists
  StatePtr s7 = Commit(&dag, s3);   // (1,1)(3,2)
  StatePtr s9 = Merge(&dag, {s5, s6});  // (1,2)(4,1)(4,2)

  auto has = [](const StatePtr& s, StateId i, uint32_t b) {
    const auto& pts = s->fork_path()->points();
    return std::find(pts.begin(), pts.end(), ForkPoint{i, b}) != pts.end();
  };
  EXPECT_TRUE(has(s2, s1->id(), 1));
  EXPECT_TRUE(has(s4, s1->id(), 2));
  EXPECT_TRUE(has(s3, s1->id(), 1));
  EXPECT_EQ(s3->fork_path()->size(), 1u);
  EXPECT_TRUE(has(s5, s4->id(), 1));
  EXPECT_TRUE(has(s6, s4->id(), 2));
  EXPECT_TRUE(has(s8, s3->id(), 1));
  EXPECT_TRUE(has(s7, s3->id(), 2));
  EXPECT_EQ(s9->fork_path()->size(), 3u);

  // "one can quickly determine that s7 is on the same branch as s3, as
  // the fork path of s3 is a subset of that of s7":
  EXPECT_TRUE(StateDag::DescendantCheck(*s3, *s7));
  // "Similarly, s9 is on the same branch as both s5 and s6":
  EXPECT_TRUE(StateDag::DescendantCheck(*s5, *s9));
  EXPECT_TRUE(StateDag::DescendantCheck(*s6, *s9));
  // Cross-branch visibility is rejected.
  EXPECT_FALSE(StateDag::DescendantCheck(*s7, *s9));
  EXPECT_FALSE(StateDag::DescendantCheck(*s9, *s7));
  EXPECT_FALSE(StateDag::DescendantCheck(*s5, *s6));
  EXPECT_FALSE(StateDag::DescendantCheck(*s8, *s7));
}

TEST(StateDagDescendantCheckTest, SharedPathObjectAnswersAtOnce) {
  StateDag dag;
  StatePtr s1 = Commit(&dag, dag.root());
  StatePtr a1 = Commit(&dag, s1);
  Commit(&dag, s1);  // s1 forks: a1's chain moves to one new path object
  StatePtr a2 = Commit(&dag, a1);
  StatePtr a3 = Commit(&dag, a2);
  ASSERT_EQ(a1->fork_path(), a3->fork_path());
  ASSERT_FALSE(a1->fork_path()->empty());
  EXPECT_TRUE(StateDag::DescendantCheck(*a1, *a3));
  // The id comparison still comes first.
  EXPECT_FALSE(StateDag::DescendantCheck(*a3, *a1));
}

TEST(StateDagTest, DropRedundantEdgesKeepsReachability) {
  // A ladder: f1 -> {f2, m}, f2 -> {x, m}, x -> m. Both edges into m from
  // a fork point are redundant; f1 -> f2 and f2 -> x are not.
  StateDag dag;
  StatePtr f1 = Commit(&dag, dag.root());
  StatePtr f2 = Commit(&dag, f1);
  StatePtr x = Commit(&dag, f2);
  StatePtr m = Merge(&dag, {x, f2, f1});
  std::lock_guard<std::mutex> guard(dag.Lock());
  EXPECT_EQ(dag.DropRedundantEdgesLocked(f2), 1u);
  EXPECT_EQ(dag.DropRedundantEdgesLocked(f1), 1u);
  EXPECT_EQ(dag.DropRedundantEdgesLocked(x), 0u);
  ASSERT_EQ(f1->children().size(), 1u);
  EXPECT_EQ(f1->children()[0], f2);
  ASSERT_EQ(f2->children().size(), 1u);
  EXPECT_EQ(f2->children()[0], x);
  ASSERT_EQ(m->parents().size(), 1u);
  EXPECT_EQ(m->parents()[0], x);
  // Paths are untouched, so Fig. 7 still sees m below all three.
  for (const StatePtr& s : {f1, f2, x}) {
    EXPECT_TRUE(StateDag::DescendantCheck(*s, *m));
  }
}

}  // namespace
}  // namespace tardis
