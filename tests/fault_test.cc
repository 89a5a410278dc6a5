// Tests for the fault-injection subsystem: registry semantics, the Env
// seam through Wal, FaultEnv crash simulation (lost/torn tails), commit
// log torn-tail recovery, short-write repair, and the deterministic
// FaultyTransport decorator.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/commit_log.h"
#include "core/tardis_store.h"
#include "fault/fault_env.h"
#include "fault/fault_points.h"
#include "fault/fault_registry.h"
#include "fault/faulty_transport.h"
#include "replication/network.h"
#include "storage/wal.h"
#include "util/coding.h"

namespace tardis {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "tardis_fault_" + name + "_" +
         std::to_string(::getpid());
}

/// Every test leaves the global registry clean so suites compose.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Global().DisarmAll();
    path_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    std::filesystem::remove_all(path_);
  }
  void TearDown() override {
    fault::FaultRegistry::Global().DisarmAll();
    fault::FaultRegistry::Global().SetCrashHandler(nullptr);
    std::filesystem::remove_all(path_);
  }
  std::string path_;
};

// ---- registry semantics -----------------------------------------------------

TEST_F(FaultTest, NothingArmedIsFree) {
  EXPECT_FALSE(fault::FaultsArmed());
  EXPECT_TRUE(fault::FaultRegistry::Global().OnPoint("no.such.point").ok());
}

TEST_F(FaultTest, ArmDisarmAndFlag) {
  auto& reg = fault::FaultRegistry::Global();
  fault::FaultSpec spec;
  reg.Arm("p", spec);
  EXPECT_TRUE(fault::FaultsArmed());
  EXPECT_TRUE(reg.OnPoint("q").ok());   // other points unaffected
  EXPECT_FALSE(reg.OnPoint("p").ok());  // armed point errors
  reg.Disarm("p");
  EXPECT_FALSE(fault::FaultsArmed());
  EXPECT_TRUE(reg.OnPoint("p").ok());
}

TEST_F(FaultTest, SkipAndMaxTriggers) {
  auto& reg = fault::FaultRegistry::Global();
  fault::FaultSpec spec;
  spec.skip = 2;
  spec.max_triggers = 1;
  reg.Arm("p", spec);
  EXPECT_TRUE(reg.OnPoint("p").ok());
  EXPECT_TRUE(reg.OnPoint("p").ok());
  EXPECT_FALSE(reg.OnPoint("p").ok());
  // max_triggers exhausted: auto-disarmed.
  EXPECT_FALSE(fault::FaultsArmed());
  EXPECT_TRUE(reg.OnPoint("p").ok());
}

TEST_F(FaultTest, InjectedCodePropagates) {
  auto& reg = fault::FaultRegistry::Global();
  fault::FaultSpec spec;
  spec.code = Code::kCorruption;
  spec.message = "bitrot";
  spec.max_triggers = 1;
  reg.Arm("p", spec);
  Status s = reg.OnPoint("p");
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("bitrot"), std::string::npos);
}

TEST_F(FaultTest, CrashRequestIsConsumedOnce) {
  auto& reg = fault::FaultRegistry::Global();
  std::string handler_point;
  reg.SetCrashHandler([&](const std::string& p) { handler_point = p; });
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kCrash;
  reg.Arm("c", spec);
  Status s = reg.OnPoint("c");
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(handler_point, "c");
  EXPECT_FALSE(fault::FaultsArmed());  // crash specs fire once
  std::string point;
  EXPECT_TRUE(reg.ConsumeCrashRequest(&point));
  EXPECT_EQ(point, "c");
  EXPECT_FALSE(reg.ConsumeCrashRequest(nullptr));
}

TEST_F(FaultTest, ProbabilityIsSeedDeterministic) {
  auto& reg = fault::FaultRegistry::Global();
  auto run = [&](uint64_t seed) {
    reg.Reseed(seed);
    fault::FaultSpec spec;
    spec.probability = 0.5;
    reg.Arm("p", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; i++) fired.push_back(!reg.OnPoint("p").ok());
    reg.DisarmAll();
    return fired;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---- Wal through the seam ---------------------------------------------------

TEST_F(FaultTest, WalAppendErrorInjectionAndRecovery) {
  auto wal = Wal::Open(path_, Wal::FlushMode::kAsync);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("one").ok());

  fault::FaultSpec spec;
  spec.max_triggers = 1;
  fault::FaultRegistry::Global().Arm("wal.append.before_write", spec);
  EXPECT_TRUE((*wal)->Append("two").IsIOError());
  // Disarmed after one trigger: appends work again and the log is intact.
  ASSERT_TRUE((*wal)->Append("three").ok());
  std::vector<std::string> records;
  ASSERT_TRUE((*wal)
                  ->ReadAll([&](const Slice& rec) {
                    records.push_back(rec.ToString());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(records, (std::vector<std::string>{"one", "three"}));
  EXPECT_EQ(fault::FaultRegistry::Global().errors_injected(), 1u);
}

TEST_F(FaultTest, WalShortWriteIsTruncateRepaired) {
  fault::FaultEnv env(/*seed=*/1);
  auto wal = Wal::Open(path_, Wal::FlushMode::kAsync, &env);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("payload-zero").ok());

  // The next append moves only 5 bytes, then fails: a torn frame lands.
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kLimitWrite;
  spec.limit_bytes = 5;
  spec.max_triggers = 1;
  fault::FaultRegistry::Global().Arm("env.append", spec);
  EXPECT_TRUE((*wal)->Append("payload-one").IsIOError());
  EXPECT_EQ(fault::FaultRegistry::Global().short_writes(), 1u);

  // The repair truncated the partial frame, so the log stays appendable
  // and parseable end to end.
  ASSERT_TRUE((*wal)->Append("payload-two").ok());
  std::vector<std::string> records;
  ASSERT_TRUE((*wal)
                  ->ReadAll([&](const Slice& rec) {
                    records.push_back(rec.ToString());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(records,
            (std::vector<std::string>{"payload-zero", "payload-two"}));
}

TEST_F(FaultTest, FaultEnvCrashLosesUnsyncedTail) {
  fault::FaultEnv env(/*seed=*/2);
  {
    auto wal = Wal::Open(path_, Wal::FlushMode::kAsync, &env);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("durable").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    ASSERT_TRUE((*wal)->Append("volatile").ok());  // never synced
    env.MarkCrashed();
    // Post-crash the frozen env refuses everything (the Wal destructor's
    // fsync fails harmlessly).
    EXPECT_TRUE((*wal)->Append("late").IsIOError());
  }
  ASSERT_TRUE(env.ApplyCrash(fault::CrashMode::kLoseUnsynced).ok());
  EXPECT_EQ(env.files_rewound(), 1u);

  auto wal = Wal::Open(path_, Wal::FlushMode::kAsync, &env);
  ASSERT_TRUE(wal.ok());
  std::vector<std::string> records;
  ASSERT_TRUE((*wal)
                  ->ReadAll([&](const Slice& rec) {
                    records.push_back(rec.ToString());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(records, (std::vector<std::string>{"durable"}));
}

TEST_F(FaultTest, FaultEnvTornTailSalvagesPrefix) {
  fault::FaultEnv env(/*seed=*/3);
  {
    auto wal = Wal::Open(path_, Wal::FlushMode::kAsync, &env);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("alpha").ok());
    ASSERT_TRUE((*wal)->Append("beta").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    ASSERT_TRUE((*wal)->Append("gamma").ok());  // the tail at risk
    env.MarkCrashed();
  }
  ASSERT_TRUE(env.ApplyCrash(fault::CrashMode::kTornTail).ok());

  auto wal = Wal::Open(path_, Wal::FlushMode::kAsync, &env);
  ASSERT_TRUE(wal.ok());
  std::vector<std::string> records;
  ASSERT_TRUE((*wal)
                  ->ReadAll([&](const Slice& rec) {
                    records.push_back(rec.ToString());
                    return Status::OK();
                  })
                  .ok());
  // The synced prefix always survives; "gamma" may or may not, but a torn
  // copy of it must never decode as a record.
  ASSERT_GE(records.size(), 2u);
  ASSERT_LE(records.size(), 3u);
  EXPECT_EQ(records[0], "alpha");
  EXPECT_EQ(records[1], "beta");
  if (records.size() == 3) EXPECT_EQ(records[2], "gamma");
}

// ---- commit log torn-tail recovery (satellite: WAL torn-tail coverage) ------

CommitLogEntry MakeEntry(StateId id, StateId parent, const std::string& key) {
  CommitLogEntry e;
  e.id = id;
  e.guid = GlobalStateId{0, id};
  e.parent_ids.push_back(parent);
  e.write_keys.push_back(key);
  return e;
}

TEST_F(FaultTest, CommitLogTruncatedMidRecordSalvagesPrefix) {
  {
    auto log = CommitLog::Open(path_, Wal::FlushMode::kSync);
    ASSERT_TRUE(log.ok());
    for (StateId id = 1; id <= 5; id++) {
      ASSERT_TRUE(
          (*log)->Append(MakeEntry(id, id - 1, "k" + std::to_string(id)))
              .ok());
    }
  }
  // Tear the last record mid-byte.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 3);

  auto log = CommitLog::Open(path_, Wal::FlushMode::kSync);
  ASSERT_TRUE(log.ok());
  std::vector<StateId> ids;
  ASSERT_TRUE((*log)
                  ->Replay([&](const CommitLogEntry& e) {
                    ids.push_back(e.id);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(ids, (std::vector<StateId>{1, 2, 3, 4}));
}

TEST_F(FaultTest, CommitLogFlippedByteStopsReplayAtCorruption) {
  {
    auto log = CommitLog::Open(path_, Wal::FlushMode::kSync);
    ASSERT_TRUE(log.ok());
    for (StateId id = 1; id <= 4; id++) {
      ASSERT_TRUE(
          (*log)->Append(MakeEntry(id, id - 1, "k" + std::to_string(id)))
              .ok());
    }
  }
  // Flip one byte in the last record's payload: its CRC must reject it.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-2, std::ios::end);
    char b = 0;
    f.seekg(-2, std::ios::end);
    f.read(&b, 1);
    f.seekp(-2, std::ios::end);
    b = static_cast<char>(b ^ 0x5A);
    f.write(&b, 1);
  }
  auto log = CommitLog::Open(path_, Wal::FlushMode::kSync);
  ASSERT_TRUE(log.ok());
  std::vector<StateId> ids;
  ASSERT_TRUE((*log)
                  ->Replay([&](const CommitLogEntry& e) {
                    ids.push_back(e.id);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(ids, (std::vector<StateId>{1, 2, 3}));
}

TEST_F(FaultTest, StoreRecoversFromTornCommitLog) {
  TardisOptions options;
  options.dir = path_;
  options.backend = RecordBackend::kBTree;
  options.flush_mode = Wal::FlushMode::kSync;
  std::vector<std::string> committed;
  {
    auto store = TardisStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto session = (*store)->CreateSession();
    for (int i = 0; i < 6; i++) {
      auto t = (*store)->Begin(session.get());
      ASSERT_TRUE(t.ok());
      const std::string key = "key" + std::to_string(i);
      ASSERT_TRUE((*t)->Put(key, "value" + std::to_string(i)).ok());
      ASSERT_TRUE((*t)->Commit().ok());
      committed.push_back(key);
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Tear the commit log's last record mid-byte; recovery must salvage the
  // prefix and serve it.
  const std::string log_path = path_ + "/commit.log";
  const auto full = std::filesystem::file_size(log_path);
  std::filesystem::resize_file(log_path, full - 4);

  auto store = TardisStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto session = (*store)->CreateSession();
  auto t = (*store)->Begin(session.get());
  ASSERT_TRUE(t.ok());
  std::string v;
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE((*t)->Get("key" + std::to_string(i), &v).ok())
        << "key" << i << " lost from salvageable prefix";
    EXPECT_EQ(v, "value" + std::to_string(i));
  }
  // The torn final commit is gone — exactly the §6.5 contract.
  EXPECT_TRUE((*t)->Get("key5", &v).IsNotFound());
}

TEST_F(FaultTest, DegradedStoreRefusesFlushAndCheckpoint) {
  TardisOptions options;
  options.dir = path_;
  options.backend = RecordBackend::kBTree;
  options.flush_mode = Wal::FlushMode::kAsync;
  auto store = TardisStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto session = (*store)->CreateSession();

  fault::FaultSpec spec;
  spec.max_triggers = 1;
  fault::FaultRegistry::Global().Arm("wal.append.before_write", spec);
  {
    auto t = (*store)->Begin(session.get());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Put("k", "v").ok());
    // The commit itself succeeds (availability over durability)...
    ASSERT_TRUE((*t)->Commit().ok());
  }
  // ...but the store knows its log is now incomplete.
  EXPECT_TRUE((*store)->commit_log_degraded());
  EXPECT_TRUE((*store)->Flush().IsIOError());
  EXPECT_TRUE((*store)->Checkpoint().IsIOError());

  // The committed data is still readable in memory.
  auto t = (*store)->Begin(session.get());
  ASSERT_TRUE(t.ok());
  std::string v;
  EXPECT_TRUE((*t)->Get("k", &v).ok());
  EXPECT_EQ(v, "v");
}

// ---- FaultyTransport --------------------------------------------------------

ReplMessage MakeMsg(uint32_t from, uint64_t seq) {
  ReplMessage m;
  m.from_site = from;
  m.commit.guid = GlobalStateId{from, seq};
  return m;
}

TEST_F(FaultTest, FaultyTransportDropsAndDuplicatesDeterministically) {
  auto run = [&](uint64_t seed) {
    NetworkOptions net_options;
    net_options.latency_us = 0;
    SimNetwork net(2, net_options);
    fault::FaultyTransportOptions options;
    options.seed = seed;
    options.drop_prob = 0.3;
    options.duplicate_prob = 0.2;
    fault::FaultyTransport ft(&net, options);
    std::vector<uint64_t> delivered;
    for (uint64_t i = 0; i < 50; i++) ft.Send(0, 1, MakeMsg(0, i));
    ReplMessage m;
    while (ft.Receive(1, &m)) delivered.push_back(m.commit.guid.seq);
    return delivered;
  };
  auto a = run(42);
  EXPECT_EQ(a, run(42));  // same seed, same delivery schedule
  EXPECT_NE(a, run(43));
  EXPECT_LT(a.size(), 50u);  // some dropped
  EXPECT_GT(fault::FaultRegistry::Global().frames_dropped.load(), 0u);
  EXPECT_GT(fault::FaultRegistry::Global().frames_duplicated.load(), 0u);
}

TEST_F(FaultTest, FaultyTransportReordersAndLosslessDrains) {
  NetworkOptions net_options;
  net_options.latency_us = 0;
  SimNetwork net(2, net_options);
  fault::FaultyTransportOptions options;
  options.seed = 9;
  options.reorder_prob = 1.0;  // hold every frame
  options.max_hold_polls = 4;
  fault::FaultyTransport ft(&net, options);
  for (uint64_t i = 0; i < 8; i++) ft.Send(0, 1, MakeMsg(0, i));
  EXPECT_TRUE(ft.HasInflight());

  // Lossless mode releases everything held on the next poll; no frame is
  // lost, only reordered.
  ft.SetLossless(true);
  std::multiset<uint64_t> seqs;
  ReplMessage m;
  while (ft.Receive(1, &m)) seqs.insert(m.commit.guid.seq);
  EXPECT_EQ(seqs.size(), 8u);
  EXPECT_FALSE(ft.HasInflight());
}

}  // namespace
}  // namespace tardis
