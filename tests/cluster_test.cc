// Unit tests for the partitioning subsystem (src/cluster/): PartitionMap
// hash-range routing and serialization, and the TwoPhaseParticipant's
// prepare/decide/recovery state machine including fork-on-conflict.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/partition_map.h"
#include "cluster/twopc.h"
#include "core/tardis_store.h"
#include "core/transaction.h"
#include "fault/fault_registry.h"
#include "replication/message.h"
#include "util/socket.h"

namespace tardis {
namespace cluster {
namespace {

constexpr uint64_t kRingEnd = 1ull << 32;

// ---- PartitionMap ----------------------------------------------------------

TEST(PartitionMapTest, SinglePartitionOwnsTheWholeRing) {
  const PartitionMap map = PartitionMap::Uniform(1);
  EXPECT_EQ(map.partition_count(), 1u);
  EXPECT_EQ(map.Range(0), std::make_pair(uint64_t{0}, kRingEnd));
  EXPECT_EQ(map.PartitionForHash(0), 0u);
  EXPECT_EQ(map.PartitionForHash(0xFFFFFFFFu), 0u);
  EXPECT_EQ(map.PartitionForKey("anything"), 0u);
}

TEST(PartitionMapTest, UniformRangesCoverAndPartition) {
  const PartitionMap map = PartitionMap::Uniform(4);
  EXPECT_EQ(map.partition_count(), 4u);
  // Contiguous, covering, non-overlapping.
  uint64_t expect_start = 0;
  for (uint32_t i = 0; i < 4; i++) {
    const auto [start, end] = map.Range(i);
    EXPECT_EQ(start, expect_start);
    EXPECT_LT(start, end);
    expect_start = end;
  }
  EXPECT_EQ(expect_start, kRingEnd);
  // Boundary hashes: the first position of each range belongs to it, the
  // position just below belongs to the previous range.
  for (uint32_t i = 0; i < 4; i++) {
    const auto [start, end] = map.Range(i);
    EXPECT_EQ(map.PartitionForHash(static_cast<uint32_t>(start)), i);
    EXPECT_EQ(map.PartitionForHash(static_cast<uint32_t>(end - 1)), i);
    if (i > 0) {
      EXPECT_EQ(map.PartitionForHash(static_cast<uint32_t>(start - 1)), i - 1);
    }
  }
}

TEST(PartitionMapTest, FromSplitPointsValidation) {
  // Empty split list = single partition.
  auto single = PartitionMap::FromSplitPoints({});
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->partition_count(), 1u);

  auto two = PartitionMap::FromSplitPoints({kRingEnd / 2});
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->partition_count(), 2u);
  EXPECT_EQ(two->PartitionForHash(0), 0u);
  EXPECT_EQ(two->PartitionForHash(0x80000000u), 1u);

  EXPECT_FALSE(PartitionMap::FromSplitPoints({0}).ok());         // not in (0, 2^32)
  EXPECT_FALSE(PartitionMap::FromSplitPoints({kRingEnd}).ok());  // not in (0, 2^32)
  EXPECT_FALSE(PartitionMap::FromSplitPoints({10, 10}).ok());    // not ascending
  EXPECT_FALSE(PartitionMap::FromSplitPoints({20, 10}).ok());    // not ascending
}

TEST(PartitionMapTest, RoutingIsStableUnderReSerialization) {
  auto original = PartitionMap::FromSplitPoints({1000, 0x40000000u, kRingEnd - 1});
  ASSERT_TRUE(original.ok());
  const std::string bytes = original->Serialize();
  auto copy = PartitionMap::Deserialize(bytes);
  ASSERT_TRUE(copy.ok());
  EXPECT_TRUE(*copy == *original);
  // Every sampled key routes identically through the copy — the property
  // the router and the daemons rely on to agree without coordination.
  for (int i = 0; i < 1000; i++) {
    const std::string key = "key" + std::to_string(i * 7919);
    EXPECT_EQ(original->PartitionForKey(key), copy->PartitionForKey(key));
  }
  // And a second round trip is bit-exact.
  EXPECT_EQ(copy->Serialize(), bytes);
}

TEST(PartitionMapTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(PartitionMap::Deserialize("").ok());
  EXPECT_FALSE(PartitionMap::Deserialize("\xff\xff\xff").ok());
  const std::string good = PartitionMap::Uniform(3).Serialize();
  // Truncations and trailing bytes are corruption, not maps.
  for (size_t n = 0; n < good.size(); n++) {
    EXPECT_FALSE(PartitionMap::Deserialize(good.substr(0, n)).ok());
  }
  EXPECT_FALSE(PartitionMap::Deserialize(good + "x").ok());
}

TEST(PartitionMapTest, HashIsDeterministic) {
  EXPECT_EQ(PartitionMap::HashKey("alpha"), PartitionMap::HashKey("alpha"));
  EXPECT_NE(PartitionMap::HashKey("alpha"), PartitionMap::HashKey("beta"));
}

TEST(ParseEndpointTest, HostPortForms) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseEndpoint("127.0.0.1:9000", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  EXPECT_FALSE(ParseEndpoint("no-port", &host, &port).ok());
  EXPECT_FALSE(ParseEndpoint("host:", &host, &port).ok());
  EXPECT_FALSE(ParseEndpoint("host:99999", &host, &port).ok());
}

// ---- TwoPhaseParticipant ---------------------------------------------------

class TwoPcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tardis_cluster_test_" +
             std::to_string(reinterpret_cast<uintptr_t>(this))))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    OpenStore();
    OpenParticipant();
  }

  void TearDown() override {
    participant_.reset();
    store_.reset();
    fault::FaultRegistry::Global().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  void OpenStore() {
    TardisOptions o;
    o.site_id = 0;
    auto store = TardisStore::Open(o);
    ASSERT_TRUE(store.ok());
    store_ = std::move(store.value());
  }

  void OpenParticipant() {
    TwoPhaseOptions o;
    o.dir = dir_;
    o.self_endpoint = "self";
    o.resolve_grace_ms = 0;
    o.decided_retention_ms = decided_retention_ms_;
    o.query_peer = [this](const std::string&, uint64_t,
                          TwoPhaseDecision* decision) {
      *decision = peer_answer_;
      return peer_reachable_ ? Status::OK()
                             : Status::Unavailable("peer down");
    };
    participant_ =
        std::make_unique<TwoPhaseParticipant>(store_.get(), std::move(o));
    ASSERT_TRUE(participant_->Recover().ok());
  }

  ReplMessage MakePrepare(uint64_t txn_id, const std::string& key,
                          const std::string& value) {
    ReplMessage m;
    m.type = ReplMessage::Type::kPrepare;
    m.txn_id = txn_id;
    m.endpoints = {"self", "peer"};
    m.commit.writes.emplace_back(key,
                                 std::make_shared<const std::string>(value));
    return m;
  }

  std::string Read(const std::string& key) {
    auto session = store_->CreateSession();
    auto txn = store_->Begin(session.get());
    if (!txn.ok()) return "<begin-error>";
    std::string v;
    Status s = txn.value()->Get(key, &v);
    txn.value()->Abort();
    if (s.IsNotFound()) return "<notfound>";
    return s.ok() ? v : "<error>";
  }

  void CommitLocal(const std::string& key, const std::string& value) {
    auto session = store_->CreateSession();
    auto txn = store_->Begin(session.get());
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn.value()->Put(key, value).ok());
    ASSERT_TRUE(txn.value()->Commit().ok());
  }

  std::string dir_;
  std::unique_ptr<TardisStore> store_;
  std::unique_ptr<TwoPhaseParticipant> participant_;
  TwoPhaseDecision peer_answer_ = TwoPhaseDecision::kUnknown;
  bool peer_reachable_ = true;
  uint64_t decided_retention_ms_ = 600'000;
};

TEST_F(TwoPcTest, PrepareThenCommit) {
  TwoPhaseReply ack;
  ASSERT_TRUE(participant_->HandlePrepare(MakePrepare(7, "k", "v"), &ack).ok());
  EXPECT_EQ(ack.txn_id, 7u);
  EXPECT_EQ(ack.decision, TwoPhaseDecision::kCommit);
  EXPECT_EQ(participant_->in_doubt_count(), 1u);
  // Staged, not committed: the write is not visible yet.
  EXPECT_EQ(Read("k"), "<notfound>");

  ASSERT_TRUE(
      participant_->HandleDecide(7, TwoPhaseDecision::kCommit, &ack)
          .ok());
  EXPECT_EQ(ack.txn_id, 7u);
  EXPECT_FALSE(ack.forked);
  EXPECT_EQ(participant_->in_doubt_count(), 0u);
  EXPECT_EQ(participant_->DecisionFor(7), TwoPhaseDecision::kCommit);
  EXPECT_EQ(Read("k"), "v");
}

TEST_F(TwoPcTest, PrepareThenAbortLeavesNothing) {
  TwoPhaseReply ack;
  ASSERT_TRUE(participant_->HandlePrepare(MakePrepare(8, "k", "v"), &ack).ok());
  ASSERT_TRUE(
      participant_->HandleDecide(8, TwoPhaseDecision::kAbort, &ack)
          .ok());
  EXPECT_EQ(participant_->DecisionFor(8), TwoPhaseDecision::kAbort);
  EXPECT_EQ(participant_->in_doubt_count(), 0u);
  EXPECT_EQ(Read("k"), "<notfound>");
}

TEST_F(TwoPcTest, DuplicatePrepareAndDecideAreIdempotent) {
  TwoPhaseReply ack;
  ASSERT_TRUE(participant_->HandlePrepare(MakePrepare(9, "k", "v"), &ack).ok());
  ASSERT_TRUE(participant_->HandlePrepare(MakePrepare(9, "k", "v"), &ack).ok());
  EXPECT_EQ(ack.decision, TwoPhaseDecision::kCommit);
  EXPECT_EQ(participant_->in_doubt_count(), 1u);

  const uint64_t commits_before =
      store_->metrics()->CounterTotal("tardis_txn_commits_total");
  ASSERT_TRUE(
      participant_->HandleDecide(9, TwoPhaseDecision::kCommit, &ack)
          .ok());
  ASSERT_TRUE(
      participant_->HandleDecide(9, TwoPhaseDecision::kCommit, &ack)
          .ok());
  EXPECT_EQ(ack.decision, TwoPhaseDecision::kCommit);
  // The second decide re-acked without committing again.
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_commits_total"),
            commits_before + 1);
}

TEST_F(TwoPcTest, DecideForUnknownTxn) {
  // Abort for a transaction never prepared here is fine (presumed abort);
  // commit is a protocol violation — the router cannot have collected our
  // ack.
  TwoPhaseReply ack;
  EXPECT_TRUE(
      participant_->HandleDecide(99, TwoPhaseDecision::kAbort, &ack)
          .ok());
  EXPECT_EQ(ack.decision, TwoPhaseDecision::kAbort);
  EXPECT_FALSE(participant_
                   ->HandleDecide(98, TwoPhaseDecision::kCommit,
                                  &ack)
                   .ok());
}

TEST_F(TwoPcTest, TxnStatusViews) {
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(10, "k", "v"), &ack).ok());
  TwoPhaseReply resp = participant_->HandleTxnStatus(10);
  EXPECT_EQ(resp.decision, TwoPhaseDecision::kUnknown);

  ASSERT_TRUE(participant_
                  ->HandleDecide(10, TwoPhaseDecision::kCommit,
                                 &ack)
                  .ok());
  resp = participant_->HandleTxnStatus(10);
  EXPECT_EQ(resp.decision, TwoPhaseDecision::kCommit);

  resp = participant_->HandleTxnStatus(12345);  // never seen: presumed abort
  EXPECT_EQ(resp.decision, TwoPhaseDecision::kAbort);
}

TEST_F(TwoPcTest, ForkOnConflictInsteadOfAbort) {
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(11, "k", "twopc"), &ack).ok());
  // A concurrent local commit takes the same key inside the window.
  CommitLocal("k", "rogue");
  const uint64_t forks_before =
      store_->metrics()->CounterTotal("tardis_txn_forks_total");
  ASSERT_TRUE(participant_
                  ->HandleDecide(11, TwoPhaseDecision::kCommit,
                                 &ack)
                  .ok());
  EXPECT_EQ(ack.decision, TwoPhaseDecision::kCommit);
  EXPECT_TRUE(ack.forked);
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_forks_total"),
            forks_before + 1);
}

// The fork report describes the 2PC's own commit only. Here a commit
// callback (standing in for a client commit or a gossiped ApplyRemote
// that lands meanwhile) makes an unrelated forking commit on the same
// site right after the 2PC commit, which itself attaches to a leaf.
TEST_F(TwoPcTest, ForkReportIgnoresOtherForkingCommits) {
  CommitLocal("x", "0");
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(12, "k", "twopc"), &ack).ok());

  // Two local writers read x; the second to commit forks.
  auto s1 = store_->CreateSession();
  auto s2 = store_->CreateSession();
  auto t1 = store_->Begin(s1.get());
  auto t2 = store_->Begin(s2.get());
  ASSERT_TRUE(t1.ok() && t2.ok());
  std::string v;
  ASSERT_TRUE((*t1)->Get("x", &v).ok());
  ASSERT_TRUE((*t2)->Get("x", &v).ok());
  ASSERT_TRUE((*t1)->Put("x", "1").ok());
  ASSERT_TRUE((*t2)->Put("x", "2").ok());
  bool armed = true;
  store_->SetCommitCallback([&](const CommitRecord&) {
    if (!armed) return;
    armed = false;
    EXPECT_TRUE((*t1)->Commit().ok());
    EXPECT_TRUE((*t2)->Commit().ok());
    EXPECT_TRUE((*t2)->forked());
  });

  const uint64_t forks_before =
      store_->metrics()->CounterTotal("tardis_txn_forks_total");
  ASSERT_TRUE(participant_
                  ->HandleDecide(12, TwoPhaseDecision::kCommit,
                                 &ack)
                  .ok());
  store_->SetCommitCallback(nullptr);
  EXPECT_FALSE(armed);
  EXPECT_EQ(store_->metrics()->CounterTotal("tardis_txn_forks_total"),
            forks_before + 1);
  EXPECT_EQ(ack.decision, TwoPhaseDecision::kCommit);
  EXPECT_FALSE(ack.forked);
  EXPECT_EQ(Read("k"), "twopc");
}

TEST_F(TwoPcTest, RecoveryBringsBackInDoubtPrepares) {
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(20, "r", "v20"), &ack).ok());
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(21, "r2", "v21"), &ack).ok());
  ASSERT_TRUE(participant_
                  ->HandleDecide(21, TwoPhaseDecision::kCommit,
                                 &ack)
                  .ok());

  // Crash: the participant dies (staged txn lost), the log survives.
  participant_.reset();
  OpenParticipant();
  EXPECT_EQ(participant_->in_doubt_count(), 1u);  // txn 20 only
  EXPECT_EQ(participant_->DecisionFor(21), TwoPhaseDecision::kCommit);

  // A decide-commit after recovery re-applies the logged write set.
  ASSERT_TRUE(participant_
                  ->HandleDecide(20, TwoPhaseDecision::kCommit,
                                 &ack)
                  .ok());
  EXPECT_FALSE(ack.forked);
  EXPECT_EQ(Read("r"), "v20");
}

TEST_F(TwoPcTest, ResolvePresumesAbortWhenAllPeersUnknown) {
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(30, "k", "v"), &ack).ok());
  peer_answer_ = TwoPhaseDecision::kUnknown;
  peer_reachable_ = true;
  EXPECT_EQ(participant_->ResolveInDoubt(), 1u);
  EXPECT_EQ(participant_->DecisionFor(30), TwoPhaseDecision::kAbort);
  EXPECT_EQ(Read("k"), "<notfound>");
}

// The resolver thread resolves an in-doubt transaction with no caller
// driving it, and stops with the participant (TearDown).
TEST_F(TwoPcTest, ResolverThreadResolvesInDoubtOnItsOwn) {
  peer_answer_ = TwoPhaseDecision::kCommit;  // set before the thread reads it
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(90, "rt", "v90"), &ack).ok());
  participant_->StartResolver(10);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (participant_->in_doubt_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(participant_->DecisionFor(90), TwoPhaseDecision::kCommit);
  EXPECT_EQ(Read("rt"), "v90");
}

TEST_F(TwoPcTest, ResolveAdoptsPeerDecisionAndWaitsWhileUnreachable) {
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(31, "k", "v"), &ack).ok());
  // Unreachable peer: stay in doubt, never presume.
  peer_reachable_ = false;
  EXPECT_EQ(participant_->ResolveInDoubt(), 0u);
  EXPECT_EQ(participant_->in_doubt_count(), 1u);
  // Peer comes back knowing the commit: adopt it.
  peer_reachable_ = true;
  peer_answer_ = TwoPhaseDecision::kCommit;
  EXPECT_EQ(participant_->ResolveInDoubt(), 1u);
  EXPECT_EQ(participant_->DecisionFor(31), TwoPhaseDecision::kCommit);
  EXPECT_EQ(Read("k"), "v");
}

TEST_F(TwoPcTest, TornLogTailIsTruncatedNotBuried) {
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(50, "t", "v50"), &ack).ok());
  participant_.reset();
  // Crash mid-append: garbage after the last complete frame.
  {
    std::ofstream f(dir_ + "/twopc.log",
                    std::ios::binary | std::ios::app);
    f << "torn-partial-frame";
  }
  OpenParticipant();
  EXPECT_EQ(participant_->in_doubt_count(), 1u);

  // Recovery must have truncated the torn bytes, not just skipped them:
  // with O_APPEND the next records would land behind the corrupt frame
  // and the following recovery would silently stop before them.
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(51, "t2", "v51"), &ack).ok());
  ASSERT_TRUE(participant_
                  ->HandleDecide(50, TwoPhaseDecision::kCommit,
                                 &ack)
                  .ok());
  participant_.reset();
  OpenParticipant();
  EXPECT_EQ(participant_->in_doubt_count(), 1u);  // txn 51
  EXPECT_EQ(participant_->DecisionFor(50), TwoPhaseDecision::kCommit);
}

TEST_F(TwoPcTest, TxnStatusPresumedAbortIsBinding) {
  TwoPhaseReply resp = participant_->HandleTxnStatus(60);
  EXPECT_EQ(resp.decision, TwoPhaseDecision::kAbort);

  // The querying peer aborted on our answer, so a prepare from a
  // still-live slow router arriving afterwards must be voted abort —
  // voting commit would split the transaction's outcome.
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(60, "k", "v"), &ack).ok());
  EXPECT_EQ(ack.decision, TwoPhaseDecision::kAbort);
  EXPECT_EQ(participant_->in_doubt_count(), 0u);
  EXPECT_EQ(Read("k"), "<notfound>");

  // And the presumption survives a crash.
  participant_.reset();
  OpenParticipant();
  EXPECT_EQ(participant_->DecisionFor(60), TwoPhaseDecision::kAbort);
}

TEST_F(TwoPcTest, DecidedEntriesAgeOutAndLogCompacts) {
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(70, "g", "v70"), &ack).ok());
  ASSERT_TRUE(participant_
                  ->HandleDecide(70, TwoPhaseDecision::kCommit,
                                 &ack)
                  .ok());
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(71, "g2", "v71"), &ack).ok());

  // Reopen with zero retention: the resolver pass ages the decided entry
  // out and compacts the log down to the live prepare.
  participant_.reset();
  decided_retention_ms_ = 0;
  OpenParticipant();
  const auto size_before = std::filesystem::file_size(dir_ + "/twopc.log");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  peer_reachable_ = false;  // txn 71 stays in doubt through the pass
  participant_->ResolveInDoubt();
  EXPECT_EQ(participant_->DecisionFor(70), TwoPhaseDecision::kUnknown);
  EXPECT_EQ(participant_->in_doubt_count(), 1u);
  EXPECT_LT(std::filesystem::file_size(dir_ + "/twopc.log"), size_before);

  // The compacted log is a valid image: recovery still finds the
  // in-doubt prepare, and appends keep working.
  participant_.reset();
  decided_retention_ms_ = 600'000;
  OpenParticipant();
  EXPECT_EQ(participant_->in_doubt_count(), 1u);
  ASSERT_TRUE(participant_
                  ->HandleDecide(71, TwoPhaseDecision::kCommit,
                                 &ack)
                  .ok());
  participant_.reset();
  OpenParticipant();
  EXPECT_EQ(participant_->DecisionFor(71), TwoPhaseDecision::kCommit);
  EXPECT_EQ(Read("g2"), "v71");
}

TEST_F(TwoPcTest, PersistFailureTurnsVoteIntoAbort) {
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kError;
  spec.message = "injected log failure";
  spec.probability = 1.0;
  spec.max_triggers = 1;
  fault::FaultRegistry::Global().Arm("twopc.prepare.persist", spec);
  TwoPhaseReply ack;
  ASSERT_TRUE(
      participant_->HandlePrepare(MakePrepare(40, "k", "v"), &ack).ok());
  EXPECT_EQ(ack.decision, TwoPhaseDecision::kAbort);
  EXPECT_EQ(participant_->in_doubt_count(), 0u);
  EXPECT_EQ(Read("k"), "<notfound>");
}

// The coordination port's 2PC verbs: Serve() runs each line through the
// same handlers and answers in the line format; bad lines answer ERR.
TEST_F(TwoPcTest, ServeAnswersTheLineVerbs) {
  ReplMessage prep = MakePrepare(80, "s", "line");
  prep.session_id = 9;
  prep.session_seq = 4;
  EXPECT_EQ(participant_->Serve(FormatPrepare(prep)), "2PC 80 commit");
  EXPECT_EQ(participant_->Serve(FormatTxnStatus(80)), "2PC 80 unknown");
  EXPECT_EQ(participant_->Serve(FormatDecide(80, TwoPhaseDecision::kCommit)),
            "2PC 80 commit");
  EXPECT_EQ(Read("s"), "line");
  EXPECT_EQ(participant_->Serve(FormatTxnStatus(80)), "2PC 80 commit");
  // The session tag rode as arguments and tagged the commit.
  GlobalStateId prior;
  EXPECT_TRUE(store_->session_dedup()->Lookup(9, 4, &prior));

  EXPECT_EQ(participant_->Serve("decide 81 commit").rfind("ERR ", 0), 0u);
  EXPECT_EQ(participant_->Serve("prepare 82 0 0 self k").rfind("ERR ", 0), 0u);
  EXPECT_EQ(participant_->Serve("txnstatus x").rfind("ERR ", 0), 0u);
}

}  // namespace
}  // namespace cluster
}  // namespace tardis
