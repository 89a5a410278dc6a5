// Durability tests: commit log replay, branch/merge reconstruction,
// partial-persistence discard (§6.5), checkpointing.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/tardis_store.h"
#include "util/coding.h"

namespace tardis {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "tardis_recovery_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<TardisStore> OpenStore() {
    TardisOptions options;
    options.dir = dir_;
    options.backend = RecordBackend::kBTree;
    options.flush_mode = Wal::FlushMode::kSync;
    auto store = TardisStore::Open(options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  static void PutCommit(TardisStore* store, ClientSession* s,
                        const std::string& k, const std::string& v) {
    auto txn = store->Begin(s);
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put(k, v).ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }

  static std::string MustGet(TardisStore* store, ClientSession* s,
                             const std::string& k) {
    auto txn = store->Begin(s);
    EXPECT_TRUE(txn.ok());
    std::string v;
    Status st = (*txn)->Get(k, &v);
    EXPECT_TRUE(st.ok()) << k << ": " << st.ToString();
    (*txn)->Abort();
    return v;
  }

  std::string dir_;
};

TEST_F(RecoveryTest, LinearHistoryRecovers) {
  {
    auto store = OpenStore();
    auto session = store->CreateSession();
    for (int i = 0; i < 20; i++) {
      PutCommit(store.get(), session.get(), "k" + std::to_string(i),
                "v" + std::to_string(i));
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  auto store = OpenStore();
  EXPECT_EQ(store->dag()->state_count(), 21u);
  auto session = store->CreateSession();
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(MustGet(store.get(), session.get(), "k" + std::to_string(i)),
              "v" + std::to_string(i));
  }
}

TEST_F(RecoveryTest, BranchesRecoverWithIsolation) {
  StateId left_tip = 0, right_tip = 0;
  {
    auto store = OpenStore();
    auto sa = store->CreateSession();
    auto sb = store->CreateSession();
    PutCommit(store.get(), sa.get(), "base", "0");
    auto t1 = store->Begin(sa.get());
    auto t2 = store->Begin(sb.get());
    ASSERT_TRUE(t1.ok() && t2.ok());
    std::string v;
    ASSERT_TRUE((*t1)->Get("base", &v).ok());
    ASSERT_TRUE((*t2)->Get("base", &v).ok());
    ASSERT_TRUE((*t1)->Put("base", "L").ok());
    ASSERT_TRUE((*t2)->Put("base", "R").ok());
    ASSERT_TRUE((*t1)->Commit().ok());
    ASSERT_TRUE((*t2)->Commit().ok());
    left_tip = sa->last_commit()->id();
    right_tip = sb->last_commit()->id();
    ASSERT_TRUE(store->Flush().ok());
  }
  auto store = OpenStore();
  EXPECT_EQ(store->dag()->Leaves().size(), 2u);
  auto session = store->CreateSession();
  auto txn = store->Begin(session.get());
  ASSERT_TRUE(txn.ok());
  std::string v;
  ASSERT_TRUE((*txn)->GetForId("base", left_tip, &v).ok());
  EXPECT_EQ(v, "L");
  ASSERT_TRUE((*txn)->GetForId("base", right_tip, &v).ok());
  EXPECT_EQ(v, "R");
  (*txn)->Abort();
}

TEST_F(RecoveryTest, MergeStateRecovers) {
  {
    auto store = OpenStore();
    auto sa = store->CreateSession();
    auto sb = store->CreateSession();
    PutCommit(store.get(), sa.get(), "n", "0");
    auto t1 = store->Begin(sa.get());
    auto t2 = store->Begin(sb.get());
    ASSERT_TRUE(t1.ok() && t2.ok());
    std::string v;
    ASSERT_TRUE((*t1)->Get("n", &v).ok());
    ASSERT_TRUE((*t2)->Get("n", &v).ok());
    ASSERT_TRUE((*t1)->Put("n", "1").ok());
    ASSERT_TRUE((*t2)->Put("n", "2").ok());
    ASSERT_TRUE((*t1)->Commit().ok());
    ASSERT_TRUE((*t2)->Commit().ok());
    auto m = store->BeginMerge(sa.get());
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE((*m)->Put("n", "3").ok());
    ASSERT_TRUE((*m)->Commit().ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  auto store = OpenStore();
  EXPECT_EQ(store->dag()->Leaves().size(), 1u);
  auto session = store->CreateSession();
  EXPECT_EQ(MustGet(store.get(), session.get(), "n"), "3");
}

TEST_F(RecoveryTest, TornLogTailIsDiscarded) {
  {
    auto store = OpenStore();
    auto session = store->CreateSession();
    for (int i = 0; i < 5; i++) {
      PutCommit(store.get(), session.get(), "k" + std::to_string(i), "v");
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  // Truncate the commit log mid-record.
  const std::string log_path = dir_ + "/commit.log";
  const auto size = std::filesystem::file_size(log_path);
  std::filesystem::resize_file(log_path, size - 4);

  auto store = OpenStore();
  // At least the first four commits survive; the fifth (torn) is gone.
  EXPECT_EQ(store->dag()->state_count(), 5u);
  auto session = store->CreateSession();
  EXPECT_EQ(MustGet(store.get(), session.get(), "k3"), "v");
}

TEST_F(RecoveryTest, PartiallyPersistedTxnDiscarded) {
  {
    auto store = OpenStore();
    auto session = store->CreateSession();
    PutCommit(store.get(), session.get(), "good", "1");
    PutCommit(store.get(), session.get(), "half", "2");
    ASSERT_TRUE(store->Flush().ok());
  }
  // Simulate a write-set record that never reached stable storage by
  // deleting it from the record store out-of-band.
  {
    TardisOptions options;
    options.dir = dir_;
    options.backend = RecordBackend::kBTree;
    options.recover_on_open = false;
    options.enable_commit_log = false;
    auto store = TardisStore::Open(options);
    ASSERT_TRUE(store.ok());
    // Find and delete the persisted record for key "half".
    bool deleted = false;
    for (StateId sid = 1; sid <= 4 && !deleted; sid++) {
      std::string probe;
      std::string rk;
      {
        std::string out;
        PutLengthPrefixed(&out, Slice("half"));
        PutFixed64(&out, sid);
        rk = out;
      }
      if ((*store)->record_store()->Get(rk, &probe).ok()) {
        ASSERT_TRUE((*store)->record_store()->Delete(rk).ok());
        ASSERT_TRUE((*store)->record_store()->Sync().ok());
        deleted = true;
      }
    }
    ASSERT_TRUE(deleted);
  }
  auto store = OpenStore();
  // The second transaction (and everything after) is discarded; the
  // first survives.
  EXPECT_EQ(store->dag()->state_count(), 2u);
  auto session = store->CreateSession();
  EXPECT_EQ(MustGet(store.get(), session.get(), "good"), "1");
  auto txn = store->Begin(session.get());
  ASSERT_TRUE(txn.ok());
  std::string v;
  EXPECT_TRUE((*txn)->Get("half", &v).IsNotFound());
  (*txn)->Abort();
}

TEST_F(RecoveryTest, CheckpointTruncatesLogAndRecovers) {
  {
    auto store = OpenStore();
    auto session = store->CreateSession();
    for (int i = 0; i < 10; i++) {
      PutCommit(store.get(), session.get(), "a" + std::to_string(i), "x");
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    // More commits after the checkpoint land in the fresh log.
    for (int i = 0; i < 5; i++) {
      PutCommit(store.get(), session.get(), "b" + std::to_string(i), "y");
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  auto store = OpenStore();
  EXPECT_EQ(store->dag()->state_count(), 16u);
  auto session = store->CreateSession();
  EXPECT_EQ(MustGet(store.get(), session.get(), "a5"), "x");
  EXPECT_EQ(MustGet(store.get(), session.get(), "b4"), "y");
}

TEST_F(RecoveryTest, CheckpointAfterGcKeepsCompressedDag) {
  {
    auto store = OpenStore();
    auto session = store->CreateSession();
    for (int i = 0; i < 30; i++) {
      PutCommit(store.get(), session.get(), "k", std::to_string(i));
    }
    store->PlaceCeiling(session.get());
    store->RunGarbageCollection();
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  auto store = OpenStore();
  EXPECT_LE(store->dag()->state_count(), 3u);
  auto session = store->CreateSession();
  EXPECT_EQ(MustGet(store.get(), session.get(), "k"), "29");
}

TEST_F(RecoveryTest, DirRequiresBTreeBackend) {
  // Recovery reloads values from the record store, and only the B+Tree
  // keeps them across a restart. A mem or trie store with a dir would
  // come back with its states but without their values, so Open refuses
  // it; a B+Tree without a dir has nowhere to live.
  for (RecordBackend backend : {RecordBackend::kMem, RecordBackend::kTrie}) {
    TardisOptions options;
    options.dir = dir_;
    options.backend = backend;
    EXPECT_TRUE(TardisStore::Open(options).status().IsInvalidArgument())
        << RecordBackendName(backend);
  }
  TardisOptions options;
  options.backend = RecordBackend::kBTree;
  EXPECT_TRUE(TardisStore::Open(options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace tardis
