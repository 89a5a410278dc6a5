// Direct unit tests for the begin/end constraints of Table 1 and their
// combinators, plus the commit-log codec.

#include <gtest/gtest.h>

#include "core/commit_log.h"
#include "core/constraints.h"
#include "core/state_dag.h"

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

class ConstraintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s1_ = Extend(&dag_, dag_.root());
    s2_ = Extend(&dag_, s1_, {"x"});
    s3_ = Extend(&dag_, s1_, {"y"});  // fork below s1
  }

  StateDag dag_;
  StatePtr s1_, s2_, s3_;
  TxnContext ctx_;
};

TEST_F(ConstraintTest, AnyBeginAcceptsEverything) {
  auto c = AnyBegin();
  EXPECT_TRUE(c->Satisfies(ctx_, *dag_.root()));
  EXPECT_TRUE(c->Satisfies(ctx_, *s3_));
  EXPECT_FALSE(c->PrefersSessionTip());
}

TEST_F(ConstraintTest, ParentBeginMatchesExactState) {
  auto c = ParentBegin();
  ctx_.session_last_commit = s2_;
  EXPECT_TRUE(c->Satisfies(ctx_, *s2_));
  EXPECT_FALSE(c->Satisfies(ctx_, *s1_));
  EXPECT_FALSE(c->Satisfies(ctx_, *s3_));
}

TEST_F(ConstraintTest, ParentBeginBeforeFirstCommitIsRoot) {
  auto c = ParentBegin();
  ctx_.session_last_commit = nullptr;
  EXPECT_TRUE(c->Satisfies(ctx_, *dag_.root()));
  EXPECT_FALSE(c->Satisfies(ctx_, *s1_));
}

TEST_F(ConstraintTest, AncestorBeginAcceptsDescendants) {
  auto c = AncestorBegin();
  ctx_.session_last_commit = s1_;
  EXPECT_TRUE(c->Satisfies(ctx_, *s1_));   // self
  EXPECT_TRUE(c->Satisfies(ctx_, *s2_));   // child
  EXPECT_TRUE(c->Satisfies(ctx_, *s3_));   // other child
  EXPECT_FALSE(c->Satisfies(ctx_, *dag_.root()));  // ancestor, not desc
  EXPECT_TRUE(c->PrefersSessionTip());

  ctx_.session_last_commit = s2_;
  EXPECT_FALSE(c->Satisfies(ctx_, *s3_));  // sibling branch
}

TEST_F(ConstraintTest, AncestorBeginWithNoHistoryAcceptsAll) {
  auto c = AncestorBegin();
  ctx_.session_last_commit = nullptr;
  EXPECT_TRUE(c->Satisfies(ctx_, *s3_));
}

TEST_F(ConstraintTest, StateIdBeginPinsId) {
  auto c = StateIdBegin(s2_->id());
  EXPECT_TRUE(c->Satisfies(ctx_, *s2_));
  EXPECT_FALSE(c->Satisfies(ctx_, *s3_));
}

TEST_F(ConstraintTest, BeginCombinators) {
  ctx_.session_last_commit = s1_;
  auto both = AndBegin({AncestorBegin(), StateIdBegin(s2_->id())});
  EXPECT_TRUE(both->Satisfies(ctx_, *s2_));
  EXPECT_FALSE(both->Satisfies(ctx_, *s3_));

  auto either = OrBegin({StateIdBegin(s2_->id()), StateIdBegin(s3_->id())});
  EXPECT_TRUE(either->Satisfies(ctx_, *s2_));
  EXPECT_TRUE(either->Satisfies(ctx_, *s3_));
  EXPECT_FALSE(either->Satisfies(ctx_, *s1_));
}

TEST_F(ConstraintTest, SerializabilityStepChecksReadSet) {
  auto c = SerializabilityEnd();
  ctx_.reads.Add("x");
  EXPECT_FALSE(c->StepOk(ctx_, *s2_));  // s2 wrote x which we read
  EXPECT_TRUE(c->StepOk(ctx_, *s3_));   // s3 wrote y only
  EXPECT_TRUE(c->FinalOk(ctx_, *s2_));  // no structural demand
}

TEST_F(ConstraintTest, SnapshotIsolationStepChecksWriteSet) {
  auto c = SnapshotIsolationEnd();
  ctx_.writes.Add("x");
  ctx_.reads.Add("x");                  // reads don't matter for SI
  EXPECT_FALSE(c->StepOk(ctx_, *s2_));  // write-write on x
  EXPECT_TRUE(c->StepOk(ctx_, *s3_));
}

TEST_F(ConstraintTest, ReadCommittedAlwaysPasses) {
  auto c = ReadCommittedEnd();
  ctx_.reads.Add("x");
  ctx_.writes.Add("x");
  EXPECT_TRUE(c->StepOk(ctx_, *s2_));
  EXPECT_TRUE(c->FinalOk(ctx_, *s2_));
}

TEST_F(ConstraintTest, NoBranchingRequiresChildlessParent) {
  auto c = NoBranchingEnd();
  EXPECT_TRUE(c->StepOk(ctx_, *s2_));     // stepping is unrestricted
  EXPECT_FALSE(c->FinalOk(ctx_, *s1_));   // s1 has two children
  EXPECT_TRUE(c->FinalOk(ctx_, *s2_));    // leaf
}

TEST_F(ConstraintTest, KBranchingCountsChildren) {
  // k=3 permits fewer than 2 children at the commit parent.
  auto c = KBranchingEnd(3);
  EXPECT_TRUE(c->FinalOk(ctx_, *s2_));    // 0 children
  StatePtr s4 = Extend(&dag_, s2_);
  EXPECT_FALSE(KBranchingEnd(2)->FinalOk(ctx_, *s2_));  // 1 child, k=2
  EXPECT_TRUE(c->FinalOk(ctx_, *s2_));    // 1 child < 2
  StatePtr s5 = Extend(&dag_, s2_);
  EXPECT_FALSE(c->FinalOk(ctx_, *s2_));   // 2 children
}

TEST_F(ConstraintTest, StateIdEndPinsParent) {
  auto c = StateIdEnd(s2_->id());
  EXPECT_TRUE(c->FinalOk(ctx_, *s2_));
  EXPECT_FALSE(c->FinalOk(ctx_, *s3_));
  EXPECT_TRUE(c->StepOk(ctx_, *s1_));   // may ripple through ancestors
  EXPECT_FALSE(c->StepOk(ctx_, *s3_));  // s3.id > target
}

TEST_F(ConstraintTest, EndCombinators) {
  ctx_.reads.Add("x");
  auto both = AndEnd({SerializabilityEnd(), NoBranchingEnd()});
  EXPECT_FALSE(both->StepOk(ctx_, *s2_));   // ser part fails
  EXPECT_FALSE(both->FinalOk(ctx_, *s1_));  // no-branching part fails
  EXPECT_TRUE(both->FinalOk(ctx_, *s2_));

  auto either = OrEnd({SerializabilityEnd(), ReadCommittedEnd()});
  EXPECT_TRUE(either->StepOk(ctx_, *s2_));  // RC side passes
}

TEST_F(ConstraintTest, NamesAreDescriptive) {
  EXPECT_EQ(AncestorBegin()->name(), "Ancestor");
  EXPECT_EQ(SerializabilityEnd()->name(), "Serializability");
  EXPECT_EQ(KBranchingEnd(4)->name(), "KBranching(4)");
  EXPECT_NE(AndEnd({SerializabilityEnd(), NoBranchingEnd()})->name().find(
                "NoBranching"),
            std::string::npos);
}

// ---- commit log codec ----------------------------------------------------------

TEST(CommitLogCodecTest, RoundTrip) {
  CommitLogEntry entry;
  entry.id = 42;
  entry.guid = {3, 99};
  entry.parent_ids = {7, 12};
  entry.is_merge = true;
  entry.write_keys = {"alpha", "beta", ""};

  CommitLogEntry decoded;
  ASSERT_TRUE(
      CommitLog::Deserialize(Slice(CommitLog::Serialize(entry)), &decoded));
  EXPECT_EQ(decoded.id, 42u);
  EXPECT_EQ(decoded.guid.site, 3u);
  EXPECT_EQ(decoded.guid.seq, 99u);
  EXPECT_EQ(decoded.parent_ids, (std::vector<StateId>{7, 12}));
  EXPECT_TRUE(decoded.is_merge);
  EXPECT_EQ(decoded.write_keys,
            (std::vector<std::string>{"alpha", "beta", ""}));
}

TEST(CommitLogCodecTest, EmptyEntry) {
  CommitLogEntry entry;
  entry.id = 0;
  CommitLogEntry decoded;
  ASSERT_TRUE(
      CommitLog::Deserialize(Slice(CommitLog::Serialize(entry)), &decoded));
  EXPECT_TRUE(decoded.parent_ids.empty());
  EXPECT_TRUE(decoded.write_keys.empty());
  EXPECT_FALSE(decoded.is_merge);
}

TEST(CommitLogCodecTest, TruncationsRejected) {
  CommitLogEntry entry;
  entry.id = 9;
  entry.parent_ids = {1};
  entry.write_keys = {"key"};
  const std::string full = CommitLog::Serialize(entry);
  for (size_t cut = 0; cut < full.size(); cut++) {
    CommitLogEntry decoded;
    EXPECT_FALSE(
        CommitLog::Deserialize(Slice(full.data(), cut), &decoded))
        << "cut=" << cut;
  }
  // Trailing garbage also rejected.
  CommitLogEntry decoded;
  EXPECT_FALSE(CommitLog::Deserialize(Slice(full + "x"), &decoded));
}

}  // namespace
}  // namespace tardis
