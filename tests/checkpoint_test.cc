// Tests for automatic checkpointing (§6.5): the commit log is truncated
// once it crosses the configured size, and recovery afterwards sees the
// checkpoint plus the fresh log suffix.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/tardis_store.h"

namespace tardis {
namespace {

class AutoCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "tardis_autockpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(AutoCheckpointTest, LogStaysBounded) {
  TardisOptions options;
  options.dir = dir_;
  options.backend = RecordBackend::kBTree;
  options.checkpoint_log_bytes = 4096;  // tiny bound: checkpoint often
  auto store = TardisStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto session = (*store)->CreateSession();
  for (int i = 0; i < 500; i++) {
    auto txn = (*store)->Begin(session.get());
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("key" + std::to_string(i % 20), "v").ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }
  // The log was truncated at least once: its size is far below what 500
  // unbounded entries would occupy.
  const auto log_size =
      std::filesystem::file_size(dir_ + "/commit.log");
  EXPECT_LT(log_size, 16'384u);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/checkpoint.log"));
}

TEST_F(AutoCheckpointTest, RecoveryAfterAutoCheckpoint) {
  {
    TardisOptions options;
    options.dir = dir_;
    options.backend = RecordBackend::kBTree;
    options.checkpoint_log_bytes = 2048;
    options.flush_mode = Wal::FlushMode::kSync;
    auto store = TardisStore::Open(options);
    ASSERT_TRUE(store.ok());
    auto session = (*store)->CreateSession();
    for (int i = 0; i < 200; i++) {
      auto txn = (*store)->Begin(session.get());
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(
          (*txn)->Put("k" + std::to_string(i % 10), std::to_string(i)).ok());
      ASSERT_TRUE((*txn)->Commit().ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  TardisOptions options;
  options.dir = dir_;
  options.backend = RecordBackend::kBTree;
  auto store = TardisStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto session = (*store)->CreateSession();
  auto txn = (*store)->Begin(session.get());
  ASSERT_TRUE(txn.ok());
  for (int k = 0; k < 10; k++) {
    // Last writer of k was round 190+k.
    std::string v;
    ASSERT_TRUE((*txn)->Get("k" + std::to_string(k), &v).ok()) << k;
    EXPECT_EQ(v, std::to_string(190 + k));
  }
  (*txn)->Abort();
  EXPECT_EQ((*store)->dag()->state_count(), 201u);
}

TEST_F(AutoCheckpointTest, DisabledByDefault) {
  TardisOptions options;
  options.dir = dir_;
  options.backend = RecordBackend::kBTree;
  auto store = TardisStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto session = (*store)->CreateSession();
  for (int i = 0; i < 100; i++) {
    auto txn = (*store)->Begin(session.get());
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)->Put("k", "v").ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/checkpoint.log"));
}

}  // namespace
}  // namespace tardis
