// Fork-native storage tests (DESIGN.md §12): the CowTrie BranchStore —
// path-copying writes, O(1) fork with structural sharing, tag-based diff,
// and 3-way merge.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/cowtrie/cow_trie.h"
#include "util/random.h"

namespace tardis {
namespace {

using BranchId = BranchStore::BranchId;
using Version = BranchStore::Version;

std::shared_ptr<const std::string> V(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

Status Put(CowTrie* t, BranchId b, const std::string& key,
           const std::string& value, uint64_t tag) {
  return t->Put(b, key, V(value), tag);
}

std::string Got(const CowTrie& t, BranchId b, const std::string& key) {
  std::string v;
  Status s = t.Get(b, key, &v);
  return s.ok() ? v : "<" + s.ToString() + ">";
}

// ---- single-branch basics ---------------------------------------------------

TEST(CowTrieBasic, PutGetDeleteOverwrite) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  EXPECT_TRUE(t.Get(1, "missing", nullptr).IsNotFound());

  ASSERT_TRUE(Put(&t, 1, "alpha", "1", 10).ok());
  ASSERT_TRUE(Put(&t, 1, "beta", "2", 11).ok());
  EXPECT_EQ(Got(t, 1, "alpha"), "1");
  EXPECT_EQ(Got(t, 1, "beta"), "2");
  EXPECT_EQ(t.BranchSize(1), 2u);

  ASSERT_TRUE(Put(&t, 1, "alpha", "1b", 12).ok());
  EXPECT_EQ(Got(t, 1, "alpha"), "1b");
  EXPECT_EQ(t.BranchSize(1), 2u);

  ASSERT_TRUE(t.Delete(1, "alpha").ok());
  EXPECT_TRUE(t.Get(1, "alpha", nullptr).IsNotFound());
  EXPECT_TRUE(t.Delete(1, "alpha").IsNotFound());
  EXPECT_EQ(t.BranchSize(1), 1u);
  ASSERT_TRUE(t.Delete(1, "beta").ok());
  EXPECT_EQ(t.BranchSize(1), 0u);
}

TEST(CowTrieBasic, PrefixKeysAndEdgeSplits) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  // Keys that are prefixes of each other force values at interior
  // positions; inserting "toast" after "toaster" splits a compressed edge.
  const std::vector<std::string> keys = {"",       "toaster", "toast",
                                         "toasting", "t",     "team"};
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(Put(&t, 1, keys[i], "v" + std::to_string(i), i + 1).ok());
  }
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(Got(t, 1, keys[i]), "v" + std::to_string(i)) << keys[i];
  }
  EXPECT_EQ(t.BranchSize(1), keys.size());
  // Mid-edge misses.
  EXPECT_TRUE(t.Get(1, "toas", nullptr).IsNotFound());
  EXPECT_TRUE(t.Get(1, "toasters", nullptr).IsNotFound());
  EXPECT_TRUE(t.Get(1, "te", nullptr).IsNotFound());

  // Deleting "toast" leaves a valueless interior node that must compact
  // away without breaking the keys below it.
  ASSERT_TRUE(t.Delete(1, "toast").ok());
  EXPECT_TRUE(t.Get(1, "toast", nullptr).IsNotFound());
  EXPECT_EQ(Got(t, 1, "toaster"), "v1");
  EXPECT_EQ(Got(t, 1, "toasting"), "v3");
}

TEST(CowTrieBasic, BranchLifecycleErrors) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  EXPECT_TRUE(t.CreateBranch(1).IsInvalidArgument());
  EXPECT_TRUE(t.Fork(99, 2).IsNotFound());
  ASSERT_TRUE(t.Fork(1, 2).ok());
  EXPECT_TRUE(t.Fork(1, 2).IsInvalidArgument());
  EXPECT_TRUE(t.HasBranch(2));
  EXPECT_FALSE(t.HasBranch(3));
  EXPECT_TRUE(t.Release(3).IsNotFound());
  ASSERT_TRUE(t.Release(2).ok());
  EXPECT_FALSE(t.HasBranch(2));
  // Operations on unknown branches.
  EXPECT_TRUE(t.Get(2, "k", nullptr).IsNotFound());
  EXPECT_TRUE(Put(&t, 2, "k", "v", 1).IsNotFound());
  EXPECT_TRUE(t.Delete(2, "k").IsNotFound());
  EXPECT_EQ(t.BranchSize(2), 0u);
  EXPECT_EQ(t.branch_count(), 1u);
}

TEST(CowTrieBasic, ForEachOrderAndEarlyStop) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  const std::vector<std::string> keys = {"b", "a", "ab", "aa", "c", ""};
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(Put(&t, 1, keys[i], keys[i] + "!", i + 1).ok());
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(t.ForEach(1, [&](const Slice& k, const std::string& v) {
                 EXPECT_EQ(v, k.ToString() + "!");
                 seen.push_back(k.ToString());
                 return Status::OK();
               }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"", "a", "aa", "ab", "b", "c"}));

  // The first non-OK status stops the walk and is returned.
  int visits = 0;
  Status s = t.ForEach(1, [&](const Slice&, const std::string&) {
    return ++visits == 2 ? Status::Aborted("stop") : Status::OK();
  });
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(visits, 2);
}

// ---- fork + structural sharing ---------------------------------------------

TEST(CowTrieFork, ForkIsSharedUntilWrite) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(Put(&t, 1, "key" + std::to_string(i), "v", 1).ok());
  }
  const uint64_t nodes_before = t.node_count();
  const uint64_t shared_before = t.shared_node_refs();

  ASSERT_TRUE(t.Fork(1, 2).ok());
  // O(1) fork: no new nodes, one extra reference on the shared root.
  EXPECT_EQ(t.node_count(), nodes_before);
  EXPECT_EQ(t.shared_node_refs(), shared_before + 1);

  // Divergence: the child write is invisible to the parent and vice versa.
  ASSERT_TRUE(Put(&t, 2, "key0", "child", 2).ok());
  ASSERT_TRUE(Put(&t, 1, "key1", "parent", 3).ok());
  EXPECT_EQ(Got(t, 1, "key0"), "v");
  EXPECT_EQ(Got(t, 2, "key0"), "child");
  EXPECT_EQ(Got(t, 1, "key1"), "parent");
  EXPECT_EQ(Got(t, 2, "key1"), "v");
  EXPECT_EQ(t.BranchSize(1), 64u);
  EXPECT_EQ(t.BranchSize(2), 64u);
  // Path copying duplicated only a spine, not the store.
  EXPECT_LT(t.node_count(), 2 * nodes_before);
}

TEST(CowTrieFork, ReleaseReclaimsEverything) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(Put(&t, 1, "k" + std::to_string(i), std::string(50, 'x'),
                    i + 1)
                    .ok());
  }
  ASSERT_TRUE(t.Fork(1, 2).ok());
  ASSERT_TRUE(Put(&t, 2, "k0", "y", 1000).ok());
  EXPECT_GT(t.node_count(), 0u);
  ASSERT_TRUE(t.Release(1).ok());
  ASSERT_TRUE(t.Release(2).ok());
  EXPECT_EQ(t.node_count(), 0u);
  EXPECT_EQ(t.shared_node_refs(), 0u);
  EXPECT_EQ(t.branch_count(), 0u);
}

TEST(CowTrieFork, ForkOfEmptyBranch) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  ASSERT_TRUE(t.Fork(1, 2).ok());
  EXPECT_EQ(t.BranchSize(2), 0u);
  ASSERT_TRUE(Put(&t, 2, "k", "v", 1).ok());
  EXPECT_TRUE(t.Get(1, "k", nullptr).IsNotFound());
}

// ---- diff -------------------------------------------------------------------

TEST(CowTrieDiff, TagDifferenceIsTheWriteSet) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  ASSERT_TRUE(Put(&t, 1, "same", "s", 1).ok());
  ASSERT_TRUE(Put(&t, 1, "rewritten", "r", 1).ok());
  ASSERT_TRUE(Put(&t, 1, "deleted", "d", 1).ok());
  ASSERT_TRUE(t.Fork(1, 2).ok());
  // Rewriting identical bytes under a new tag still counts as a write —
  // the DAG's write-set semantics, not value equality.
  ASSERT_TRUE(Put(&t, 2, "rewritten", "r", 2).ok());
  ASSERT_TRUE(t.Delete(2, "deleted").ok());
  ASSERT_TRUE(Put(&t, 2, "added", "a", 2).ok());

  std::map<std::string, std::pair<bool, bool>> seen;  // key -> present b/a
  ASSERT_TRUE(t.Diff(1, 2, [&](const Slice& k, const Version& before,
                               const Version& after) {
                 seen[k.ToString()] = {before.present, after.present};
               }).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen["rewritten"], std::make_pair(true, true));
  EXPECT_EQ(seen["deleted"], std::make_pair(true, false));
  EXPECT_EQ(seen["added"], std::make_pair(false, true));
  EXPECT_EQ(seen.count("same"), 0u);

  // Diff against self is empty (pointer-equal roots prune instantly).
  int n = 0;
  ASSERT_TRUE(
      t.Diff(1, 1, [&](const Slice&, const Version&, const Version&) { n++; })
          .ok());
  EXPECT_EQ(n, 0);
}

TEST(CowTrieDiff, SharedSubtreesAreSkipped) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  for (int i = 0; i < 512; i++) {
    ASSERT_TRUE(Put(&t, 1, "bulk/" + std::to_string(i), "v", 1).ok());
  }
  ASSERT_TRUE(t.Fork(1, 2).ok());
  ASSERT_TRUE(Put(&t, 2, "bulk/7", "w", 2).ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(t.Diff(1, 2, [&](const Slice& k, const Version&,
                               const Version&) {
                 keys.push_back(k.ToString());
               }).ok());
  EXPECT_EQ(keys, std::vector<std::string>{"bulk/7"});
}

// ---- 3-way merge ------------------------------------------------------------

// base branch 1 with three keys; fork into src=2 and dest=3.
class CowTrieMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(t_.CreateBranch(1).ok());
    ASSERT_TRUE(Put(&t_, 1, "left", "base", 1).ok());
    ASSERT_TRUE(Put(&t_, 1, "right", "base", 1).ok());
    ASSERT_TRUE(Put(&t_, 1, "both", "base", 1).ok());
    ASSERT_TRUE(t_.Fork(1, 2).ok());
    ASSERT_TRUE(t_.Fork(1, 3).ok());
  }
  CowTrie t_;
};

TEST_F(CowTrieMergeTest, OneSidedChangesTakeThatSide) {
  ASSERT_TRUE(Put(&t_, 2, "left", "src", 2).ok());
  ASSERT_TRUE(Put(&t_, 3, "right", "dest", 3).ok());
  auto stats = t_.Merge(1, 2, 3, 4, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->conflicts, 0u);
  // One-sided subtrees are adopted wholesale by pointer comparison — no
  // per-key reconciliation happens at all.
  EXPECT_EQ(stats->diff_keys, 0u);
  EXPECT_EQ(Got(t_, 4, "left"), "src");
  EXPECT_EQ(Got(t_, 4, "right"), "dest");
  EXPECT_EQ(Got(t_, 4, "both"), "base");
  EXPECT_EQ(t_.BranchSize(4), 3u);
}

TEST_F(CowTrieMergeTest, SameChangeOnBothSidesIsNotAConflict) {
  ASSERT_TRUE(Put(&t_, 2, "both", "agreed", 7).ok());
  ASSERT_TRUE(Put(&t_, 3, "both", "agreed", 7).ok());
  auto stats = t_.Merge(1, 2, 3, 4, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->conflicts, 0u);
  EXPECT_EQ(Got(t_, 4, "both"), "agreed");
}

TEST_F(CowTrieMergeTest, DefaultResolutionKeepsLargerTag) {
  ASSERT_TRUE(Put(&t_, 2, "both", "older", 5).ok());
  ASSERT_TRUE(Put(&t_, 3, "both", "newer", 9).ok());
  auto stats = t_.Merge(1, 2, 3, 4, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->conflicts, 1u);
  EXPECT_EQ(Got(t_, 4, "both"), "newer");
}

TEST_F(CowTrieMergeTest, ConflictFnSeesAllThreeVersionsAndCanDelete) {
  ASSERT_TRUE(Put(&t_, 2, "both", "A", 5).ok());
  ASSERT_TRUE(Put(&t_, 3, "both", "B", 6).ok());
  ASSERT_TRUE(Put(&t_, 2, "gone", "x", 5).ok());
  ASSERT_TRUE(Put(&t_, 3, "gone", "y", 6).ok());
  auto stats = t_.Merge(
      1, 2, 3, 4,
      [](const Slice& key, const Version& base, const Version& src,
         const Version& dest) {
        if (key == Slice("gone")) return Version{};  // delete the key
        EXPECT_TRUE(base.present);
        EXPECT_EQ(*base.value, "base");
        EXPECT_EQ(*src.value, "A");
        EXPECT_EQ(*dest.value, "B");
        Version out;
        out.present = true;
        out.value = V(*src.value + "+" + *dest.value);
        out.tag = std::max(src.tag, dest.tag);
        return out;
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->conflicts, 2u);
  EXPECT_EQ(Got(t_, 4, "both"), "A+B");
  EXPECT_TRUE(t_.Get(4, "gone", nullptr).IsNotFound());
}

TEST_F(CowTrieMergeTest, DeleteVersusUntouchedPropagates) {
  ASSERT_TRUE(t_.Delete(2, "left").ok());
  auto stats = t_.Merge(1, 2, 3, 4, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->conflicts, 0u);
  EXPECT_TRUE(t_.Get(4, "left", nullptr).IsNotFound());
  EXPECT_EQ(t_.BranchSize(4), 2u);
}

TEST_F(CowTrieMergeTest, DeleteVersusWriteIsAConflict) {
  ASSERT_TRUE(t_.Delete(2, "both").ok());
  ASSERT_TRUE(Put(&t_, 3, "both", "kept", 9).ok());
  auto stats = t_.Merge(1, 2, 3, 4, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->conflicts, 1u);
  // Default tag-max: the write's tag (9) beats the delete's absence.
  EXPECT_EQ(Got(t_, 4, "both"), "kept");
}

TEST_F(CowTrieMergeTest, InPlaceMergeIntoDest) {
  ASSERT_TRUE(Put(&t_, 2, "left", "src", 2).ok());
  ASSERT_TRUE(Put(&t_, 3, "right", "dest", 3).ok());
  auto stats = t_.Merge(1, 2, 3, /*out=*/3, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Got(t_, 3, "left"), "src");
  EXPECT_EQ(Got(t_, 3, "right"), "dest");
  // src and base are untouched.
  EXPECT_EQ(Got(t_, 2, "right"), "base");
  EXPECT_EQ(Got(t_, 1, "left"), "base");
}

TEST_F(CowTrieMergeTest, MidEdgeDivergence) {
  // Writes that land mid-edge relative to the base's compressed labels
  // exercise the view-detach paths of the merge recursion.
  ASSERT_TRUE(Put(&t_, 2, "le", "src-short", 2).ok());
  ASSERT_TRUE(Put(&t_, 3, "leftmost", "dest-long", 3).ok());
  auto stats = t_.Merge(1, 2, 3, 4, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->conflicts, 0u);
  EXPECT_EQ(Got(t_, 4, "le"), "src-short");
  EXPECT_EQ(Got(t_, 4, "left"), "base");
  EXPECT_EQ(Got(t_, 4, "leftmost"), "dest-long");
}

TEST(CowTrieMerge, CostIsProportionalToDiffNotStoreSize) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(Put(&t, 1, "shared/" + std::to_string(i), "v", 1).ok());
  }
  ASSERT_TRUE(t.Fork(1, 2).ok());
  ASSERT_TRUE(t.Fork(1, 3).ok());
  ASSERT_TRUE(Put(&t, 2, "shared/1", "a", 2).ok());
  ASSERT_TRUE(Put(&t, 3, "shared/999", "b", 3).ok());
  ASSERT_TRUE(Put(&t, 2, "shared/500", "sA", 2).ok());
  ASSERT_TRUE(Put(&t, 3, "shared/500", "sB", 3).ok());
  auto stats = t.Merge(1, 2, 3, 4, nullptr);
  ASSERT_TRUE(stats.ok());
  // Only the doubly-written key needs per-key reconciliation; the
  // one-sided writes and the other 997 shared keys are adopted by
  // pointer comparison without being walked.
  EXPECT_EQ(stats->diff_keys, 1u);
  EXPECT_EQ(stats->conflicts, 1u);
  EXPECT_EQ(Got(t, 4, "shared/1"), "a");
  EXPECT_EQ(Got(t, 4, "shared/999"), "b");
  EXPECT_EQ(Got(t, 4, "shared/500"), "sB");  // larger tag wins
  EXPECT_EQ(t.BranchSize(4), 1000u);
}

TEST(CowTrieMerge, EmptyAndMissingBranches) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  ASSERT_TRUE(t.Fork(1, 2).ok());
  ASSERT_TRUE(t.Fork(1, 3).ok());
  auto stats = t.Merge(1, 2, 3, 4, nullptr);  // all empty
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->diff_keys, 0u);
  EXPECT_EQ(t.BranchSize(4), 0u);
  EXPECT_TRUE(t.HasBranch(4));
  EXPECT_FALSE(t.Merge(1, 99, 3, 5, nullptr).ok());
}

// ---- concurrency: readers over forked branches vs a path-copying writer ----
// Exercised under TSan by the cowtrie ctest label (.github/workflows).

TEST(CowTrieConcurrency, ReadersNeverBlockOrTearDuringPathCopying) {
  CowTrie t;
  ASSERT_TRUE(t.CreateBranch(1).ok());
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(Put(&t, 1, "k" + std::to_string(i), "stable", 1).ok());
  }
  // Readers work on frozen forks 10..13; the writer churns branch 1 and
  // forks/releases scratch branches — the exact branch-on-conflict access
  // pattern (sibling readers vs a path-copying writer).
  for (BranchId b = 10; b < 14; b++) ASSERT_TRUE(t.Fork(1, b).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; r++) {
    readers.emplace_back([&, r] {
      const BranchId b = 10 + r;
      Random rng(r + 1);
      std::string v;
      while (!stop.load(std::memory_order_acquire)) {
        const int i = static_cast<int>(rng.Uniform(kKeys));
        if (!t.Get(b, "k" + std::to_string(i), &v).ok() || v != "stable") {
          errors.fetch_add(1);
        }
        if (rng.Uniform(64) == 0) {
          uint64_t n = 0;
          Status s = t.ForEach(b, [&](const Slice&, const std::string&) {
            n++;
            return Status::OK();
          });
          if (!s.ok() || n != kKeys) errors.fetch_add(1);
        }
      }
    });
  }

  Random rng(42);
  for (int round = 0; round < 2000; round++) {
    const int i = static_cast<int>(rng.Uniform(kKeys));
    const std::string key = "k" + std::to_string(i);
    if (rng.Uniform(4) == 0) {
      t.Delete(1, key);
    } else {
      ASSERT_TRUE(Put(&t, 1, key, "w" + std::to_string(round), round + 2)
                      .ok());
    }
    if (rng.Uniform(32) == 0) {
      const BranchId scratch = 100 + (round % 8);
      if (t.HasBranch(scratch)) ASSERT_TRUE(t.Release(scratch).ok());
      ASSERT_TRUE(t.Fork(1, scratch).ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace tardis
