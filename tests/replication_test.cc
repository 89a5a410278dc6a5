// Tests for the replication layer: the simulated network, remote apply
// with the StateID constraint, deferred (cached) transactions, cross-site
// convergence of branches, partitions, recovery sync, and GC coordination.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "replication/cluster.h"

namespace tardis {
namespace {

void PutCommit(TardisStore* store, ClientSession* s, const std::string& k,
               const std::string& v) {
  auto txn = store->Begin(s);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put(k, v).ok());
  ASSERT_TRUE((*txn)->Commit().ok());
}

std::string MustGet(TardisStore* store, ClientSession* s,
                    const std::string& k) {
  auto txn = store->Begin(s);
  EXPECT_TRUE(txn.ok());
  std::string v;
  Status st = (*txn)->Get(k, &v);
  EXPECT_TRUE(st.ok()) << k << ": " << st.ToString();
  (*txn)->Abort();
  return v;
}

TEST(SimNetworkTest, DeliversInFifoOrderPerLink) {
  SimNetwork net(2);
  for (int i = 0; i < 5; i++) {
    ReplMessage m;
    m.ceiling_epoch = i;
    net.Send(0, 1, m);
  }
  ReplMessage got;
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(net.Receive(1, &got));
    EXPECT_EQ(got.ceiling_epoch, static_cast<uint64_t>(i));
    EXPECT_EQ(got.from_site, 0u);
  }
  EXPECT_FALSE(net.Receive(1, &got));
}

TEST(SimNetworkTest, LatencyDelaysDelivery) {
  NetworkOptions options;
  options.latency_us = 50'000;  // 50 ms
  SimNetwork net(2, options);
  ReplMessage m;
  net.Send(0, 1, m);
  ReplMessage got;
  EXPECT_FALSE(net.Receive(1, &got));  // not due yet
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(net.Receive(1, &got));
}

TEST(SimNetworkTest, PartitionDropsAndHealRestores) {
  SimNetwork net(2);
  net.Partition(0, 1);
  ReplMessage m;
  net.Send(0, 1, m);
  EXPECT_EQ(net.messages_dropped(), 1u);
  net.Heal(0, 1);
  net.Send(0, 1, m);
  ReplMessage got;
  EXPECT_TRUE(net.Receive(1, &got));
}

TEST(SimNetworkTest, NoSelfDelivery) {
  SimNetwork net(2);
  ReplMessage m;
  net.Send(0, 0, m);
  ReplMessage got;
  EXPECT_FALSE(net.Receive(0, &got));
  EXPECT_EQ(net.messages_sent(), 0u);
}

class ClusterTest : public ::testing::Test {
 protected:
  void Open(size_t sites = 2, GcCoordination gc = GcCoordination::kOptimistic) {
    ClusterOptions options;
    options.num_sites = sites;
    options.gc_mode = gc;
    auto cluster = Cluster::Open(options);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(*cluster);
    cluster_->Start();
  }
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterTest, SingleCommitReplicates) {
  Open(2);
  auto session = cluster_->site(0)->CreateSession();
  PutCommit(cluster_->site(0), session.get(), "k", "v");
  ASSERT_TRUE(cluster_->WaitQuiescent());
  auto remote_session = cluster_->site(1)->CreateSession();
  EXPECT_EQ(MustGet(cluster_->site(1), remote_session.get(), "k"), "v");
  EXPECT_EQ(cluster_->site(1)->metrics()->CounterTotal(
                "tardis_txn_remote_applied_total"),
            1u);
}

TEST_F(ClusterTest, ChainReplicatesInOrder) {
  Open(3);
  auto session = cluster_->site(0)->CreateSession();
  for (int i = 0; i < 20; i++) {
    PutCommit(cluster_->site(0), session.get(), "k", std::to_string(i));
  }
  ASSERT_TRUE(cluster_->WaitQuiescent());
  for (size_t s = 1; s < 3; s++) {
    auto remote = cluster_->site(s)->CreateSession();
    EXPECT_EQ(MustGet(cluster_->site(s), remote.get(), "k"), "19");
    EXPECT_EQ(cluster_->site(s)->dag()->state_count(), 21u);
  }
}

TEST_F(ClusterTest, ConcurrentRemoteWritesForkEverywhere) {
  Open(2);
  auto s0 = cluster_->site(0)->CreateSession();
  auto s1 = cluster_->site(1)->CreateSession();
  // Both sites write the same key concurrently. The link is severed for
  // the two commits: if the first broadcast landed before the second
  // Begin picked its read state, the histories would linearize and no
  // fork would form (a real scheduling, but not the one under test).
  cluster_->network()->Partition(0, 1);
  PutCommit(cluster_->site(0), s0.get(), "page", "from-site-0");
  PutCommit(cluster_->site(1), s1.get(), "page", "from-site-1");
  cluster_->network()->HealAll();
  cluster_->replicator(0)->RequestSync();
  cluster_->replicator(1)->RequestSync();
  ASSERT_TRUE(cluster_->WaitQuiescent());
  // Both sites now hold both branches.
  EXPECT_EQ(cluster_->site(0)->dag()->Leaves().size(), 2u);
  EXPECT_EQ(cluster_->site(1)->dag()->Leaves().size(), 2u);
  // Each site's client still reads its own write (inter-branch isolation
  // + Ancestor begin).
  EXPECT_EQ(MustGet(cluster_->site(0), s0.get(), "page"), "from-site-0");
  EXPECT_EQ(MustGet(cluster_->site(1), s1.get(), "page"), "from-site-1");
}

TEST_F(ClusterTest, MergeReplicatesAndConverges) {
  Open(2);
  auto s0 = cluster_->site(0)->CreateSession();
  auto s1 = cluster_->site(1)->CreateSession();
  PutCommit(cluster_->site(0), s0.get(), "cnt", "5");
  ASSERT_TRUE(cluster_->WaitQuiescent());
  // Fork deterministically: sever the link so neither write can reach
  // the other site before it commits, then heal and recover.
  cluster_->network()->Partition(0, 1);
  PutCommit(cluster_->site(0), s0.get(), "cnt", "6");
  PutCommit(cluster_->site(1), s1.get(), "cnt", "7");
  cluster_->network()->HealAll();
  cluster_->replicator(0)->RequestSync();
  cluster_->replicator(1)->RequestSync();
  ASSERT_TRUE(cluster_->WaitQuiescent());

  // Merge at site 0 using the fork-point delta rule.
  auto m = cluster_->site(0)->BeginMerge(s0.get());
  ASSERT_TRUE(m.ok());
  ASSERT_EQ((*m)->parents().size(), 2u);
  auto forks = (*m)->FindForkPoints((*m)->parents());
  ASSERT_TRUE(forks.ok());
  std::string fv;
  ASSERT_TRUE((*m)->GetForId("cnt", (*forks)[0], &fv).ok());
  EXPECT_EQ(fv, "5");
  int result = 5;
  for (StateId p : (*m)->parents()) {
    std::string bv;
    ASSERT_TRUE((*m)->GetForId("cnt", p, &bv).ok());
    result += std::stoi(bv) - 5;
  }
  EXPECT_EQ(result, 8);  // 5 + 1 + 2
  ASSERT_TRUE((*m)->Put("cnt", std::to_string(result)).ok());
  ASSERT_TRUE((*m)->Commit().ok());
  ASSERT_TRUE(cluster_->WaitQuiescent());

  // The merge state replicated: both sites converge to one leaf.
  EXPECT_EQ(cluster_->site(1)->dag()->Leaves().size(), 1u);
  EXPECT_EQ(MustGet(cluster_->site(1), s1.get(), "cnt"), "8");
}

TEST_F(ClusterTest, PartitionDefersThenConverges) {
  Open(2);
  cluster_->network()->Partition(0, 1);
  auto s0 = cluster_->site(0)->CreateSession();
  auto s1 = cluster_->site(1)->CreateSession();
  for (int i = 0; i < 5; i++) {
    PutCommit(cluster_->site(0), s0.get(), "a", std::to_string(i));
    PutCommit(cluster_->site(1), s1.get(), "b", std::to_string(i));
  }
  // Nothing crossed the partition.
  EXPECT_EQ(cluster_->site(0)->metrics()->CounterTotal(
                "tardis_txn_remote_applied_total"),
            0u);
  cluster_->network()->HealAll();
  // Post-heal commits replicate; dropped ones are recovered by sync.
  cluster_->replicator(0)->RequestSync();
  cluster_->replicator(1)->RequestSync();
  ASSERT_TRUE(cluster_->WaitQuiescent());
  auto probe0 = cluster_->site(0)->CreateSession();
  auto probe1 = cluster_->site(1)->CreateSession();
  // Site 0 now has site 1's branch and vice versa.
  EXPECT_EQ(cluster_->site(0)->dag()->state_count(), 11u);
  EXPECT_EQ(cluster_->site(1)->dag()->state_count(), 11u);
  EXPECT_EQ(MustGet(cluster_->site(0), s0.get(), "a"), "4");
  EXPECT_EQ(MustGet(cluster_->site(1), s1.get(), "b"), "4");
}

TEST_F(ClusterTest, OutOfOrderDeliveryIsCached) {
  // Send child-before-parent by hand and check the replicator caches it.
  Open(2);
  cluster_->Stop();  // drive pumps manually for determinism

  auto s0 = cluster_->site(0)->CreateSession();
  PutCommit(cluster_->site(0), s0.get(), "k", "1");
  PutCommit(cluster_->site(0), s0.get(), "k", "2");
  // Manually craft the records in reverse order at site 1.
  StatePtr tip = s0->last_commit();
  StatePtr parent = tip->parents()[0];

  CommitRecord child;
  child.guid = tip->guid();
  child.parent_guids = {parent->guid()};
  child.writes.emplace_back("k", std::make_shared<const std::string>("2"));

  CommitRecord first;
  first.guid = parent->guid();
  first.parent_guids = {cluster_->site(0)->dag()->root()->guid()};
  first.writes.emplace_back("k", std::make_shared<const std::string>("1"));

  EXPECT_TRUE(cluster_->site(1)->ApplyRemote(child).IsUnavailable());
  EXPECT_TRUE(cluster_->site(1)->ApplyRemote(first).ok());
  EXPECT_TRUE(cluster_->site(1)->ApplyRemote(child).ok());
  EXPECT_EQ(cluster_->site(1)->dag()->state_count(), 3u);
  // Idempotence on duplicate delivery.
  EXPECT_TRUE(cluster_->site(1)->ApplyRemote(child).ok());
  EXPECT_EQ(cluster_->site(1)->dag()->state_count(), 3u);
}

TEST_F(ClusterTest, PessimisticCeilingWaitsForConsent) {
  Open(2, GcCoordination::kPessimistic);
  cluster_->network()->Partition(0, 1);
  auto s0 = cluster_->site(0)->CreateSession();
  for (int i = 0; i < 10; i++) {
    PutCommit(cluster_->site(0), s0.get(), "k", std::to_string(i));
  }
  // During the partition, consent cannot arrive: GC must not compress.
  cluster_->replicator(0)->PlaceCeiling(s0.get());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  GcStats during = cluster_->site(0)->RunGarbageCollection();
  EXPECT_EQ(during.states_deleted, 0u);

  cluster_->network()->HealAll();
  cluster_->replicator(0)->RequestSync();
  cluster_->replicator(1)->RequestSync();
  ASSERT_TRUE(cluster_->WaitQuiescent());
  // Consent needs the remote site to hold the state: re-request.
  cluster_->replicator(0)->PlaceCeiling(s0.get());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  GcStats after = cluster_->site(0)->RunGarbageCollection();
  EXPECT_GT(after.states_deleted, 0u);
}

// Resilience tests drive the replication clock by hand (StartManual +
// Tick) so heartbeat cadence, suspicion timeouts and consent deadlines
// are exact tick counts rather than wall-clock races.
class ResilienceTest : public ::testing::Test {
 protected:
  void OpenManual(const ClusterOptions& options) {
    auto cluster = Cluster::Open(options);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(*cluster);
    for (size_t i = 0; i < cluster_->num_sites(); i++) {
      cluster_->replicator(i)->StartManual();
    }
  }

  /// Delivers every in-flight message, repeatedly, until the mesh is idle.
  void PumpAll() {
    size_t moved;
    do {
      moved = 0;
      for (size_t i = 0; i < cluster_->num_sites(); i++) {
        moved += cluster_->replicator(i)->PumpOnce();
      }
    } while (moved > 0);
  }

  /// One replication time-step at every site, then full delivery.
  void TickAll() {
    for (size_t i = 0; i < cluster_->num_sites(); i++) {
      cluster_->replicator(i)->Tick();
    }
    PumpAll();
  }

  Replicator::PeerHealth PeerAt(size_t site, uint32_t peer) {
    for (const Replicator::PeerHealth& p :
         cluster_->replicator(site)->PeerStates()) {
      if (p.site == peer) return p;
    }
    ADD_FAILURE() << "peer " << peer << " not tracked at site " << site;
    return {};
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ResilienceTest, HeartbeatLivenessTracksDeathAndReturn) {
  ClusterOptions options;
  options.num_sites = 2;
  options.repl.heartbeat_every_ticks = 1;
  options.repl.suspect_after_ticks = 2;
  options.repl.dead_after_ticks = 4;
  OpenManual(options);

  // Heartbeats flowing both ways: everyone stays alive.
  for (int i = 0; i < 3; i++) TickAll();
  EXPECT_EQ(PeerAt(0, 1).state, PeerLiveness::kAlive);
  EXPECT_EQ(PeerAt(1, 0).state, PeerLiveness::kAlive);

  // Site 1 goes silent; site 0's clock keeps running. The silence crosses
  // the suspect threshold first, then the dead threshold.
  bool saw_suspect = false;
  for (int i = 0; i < 6; i++) {
    cluster_->replicator(0)->Tick();
    cluster_->replicator(0)->PumpOnce();
    if (PeerAt(0, 1).state == PeerLiveness::kSuspect) saw_suspect = true;
  }
  EXPECT_TRUE(saw_suspect);
  EXPECT_EQ(PeerAt(0, 1).state, PeerLiveness::kDead);

  // The peer speaks again: back to alive, with the flap recorded and the
  // next death threshold doubled (exponential suspicion).
  cluster_->replicator(1)->Tick();
  cluster_->replicator(0)->PumpOnce();
  const Replicator::PeerHealth back = PeerAt(0, 1);
  EXPECT_EQ(back.state, PeerLiveness::kAlive);
  EXPECT_EQ(back.flaps, 1u);
  EXPECT_EQ(back.dead_after_ticks, 8u);
}

TEST_F(ResilienceTest, AntiEntropyRepairsDroppedGossipWithoutSync) {
  ClusterOptions options;
  options.num_sites = 2;
  options.repl.heartbeat_every_ticks = 1;
  OpenManual(options);

  // Every broadcast during the partition is lost.
  cluster_->network()->Partition(0, 1);
  auto s0 = cluster_->site(0)->CreateSession();
  for (int i = 0; i < 5; i++) {
    PutCommit(cluster_->site(0), s0.get(), "k", std::to_string(i));
  }
  EXPECT_EQ(cluster_->site(1)->dag()->state_count(), 1u);

  // Heal and let the heartbeat digests do the repair — no RequestSync.
  cluster_->network()->HealAll();
  for (int i = 0; i < 8 && cluster_->site(1)->dag()->state_count() < 6; i++) {
    TickAll();
  }
  EXPECT_EQ(cluster_->site(1)->dag()->state_count(), 6u);
  auto s1 = cluster_->site(1)->CreateSession();
  EXPECT_EQ(MustGet(cluster_->site(1), s1.get(), "k"), "4");
}

TEST_F(ResilienceTest, SnapshotBootstrapsSiteBehindArchiveHorizon) {
  ClusterOptions options;
  options.num_sites = 2;
  options.repl.heartbeat_every_ticks = 1;
  options.repl.archive_horizon = 8;  // force the early history out
  OpenManual(options);

  cluster_->network()->Partition(0, 1);
  auto s0 = cluster_->site(0)->CreateSession();
  for (int i = 0; i < 50; i++) {
    PutCommit(cluster_->site(0), s0.get(), "k", std::to_string(i));
  }
  cluster_->network()->HealAll();

  // Site 1's floor (0) is below site 0's trimmed archive: replaying the
  // log cannot help, a snapshot must be shipped.
  for (int i = 0; i < 20 && cluster_->site(1)->dag()->state_count() < 51;
       i++) {
    TickAll();
  }
  EXPECT_EQ(cluster_->site(1)->dag()->state_count(), 51u);
  auto s1 = cluster_->site(1)->CreateSession();
  EXPECT_EQ(MustGet(cluster_->site(1), s1.get(), "k"), "49");

  // The bootstrapped site keeps working as a first-class writer: its own
  // commits replicate back (the snapshot advanced no floors it owns, and
  // adopted floors protect against guid reuse).
  PutCommit(cluster_->site(1), s1.get(), "k2", "after-bootstrap");
  for (int i = 0; i < 4 && cluster_->site(0)->dag()->state_count() < 52; i++) {
    TickAll();
  }
  EXPECT_EQ(cluster_->site(0)->dag()->state_count(), 52u);
}

TEST_F(ResilienceTest, OrphanCacheIsBounded) {
  ClusterOptions options;
  options.num_sites = 2;
  options.repl.max_pending = 2;
  OpenManual(options);

  // Four orphan commits whose parent never arrives: the pending cache
  // must hold only the configured cap, evicting the oldest.
  for (uint64_t i = 0; i < 4; i++) {
    ReplMessage msg;
    msg.type = ReplMessage::Type::kCommit;
    msg.commit.guid = GlobalStateId{1, 100 + i};
    msg.commit.parent_guids = {GlobalStateId{1, 99}};  // unknown parent
    cluster_->network()->Send(1, 0, std::move(msg));
  }
  cluster_->replicator(0)->PumpOnce();
  EXPECT_EQ(cluster_->replicator(0)->pending_count(), 2u);
}

TEST_F(ResilienceTest, PessimisticConsentExcludesDeadPeerAndRedelivers) {
  ClusterOptions options;
  options.num_sites = 3;
  options.gc_mode = GcCoordination::kPessimistic;
  options.repl.heartbeat_every_ticks = 1;
  options.repl.suspect_after_ticks = 2;
  options.repl.dead_after_ticks = 4;
  OpenManual(options);

  auto s0 = cluster_->site(0)->CreateSession();
  for (int i = 0; i < 10; i++) {
    PutCommit(cluster_->site(0), s0.get(), "k", std::to_string(i));
  }
  PumpAll();
  ASSERT_EQ(cluster_->site(2)->dag()->state_count(), 11u);

  // Site 2 crashes (silent + unreachable).
  cluster_->network()->Partition(0, 2);
  cluster_->network()->Partition(1, 2);
  for (int i = 0; i < 6; i++) {
    cluster_->replicator(0)->Tick();
    cluster_->replicator(1)->Tick();
    cluster_->replicator(0)->PumpOnce();
    cluster_->replicator(1)->PumpOnce();
  }
  ASSERT_EQ(PeerAt(0, 2).state, PeerLiveness::kDead);

  // Consent proceeds with the dead site excluded: only site 1 must answer,
  // and GC may compress — it never wedges on the crashed peer.
  cluster_->replicator(0)->PlaceCeiling(s0.get());
  cluster_->replicator(1)->PumpOnce();  // consent request -> ack
  cluster_->replicator(0)->PumpOnce();  // ack -> ceiling placed + committed
  GcStats at0 = cluster_->site(0)->RunGarbageCollection();
  EXPECT_GT(at0.states_deleted, 0u);

  // The crashed site returns: its first heartbeat flips it alive and the
  // ceiling committed around it is re-delivered, so its own GC catches up.
  cluster_->network()->HealAll();
  cluster_->replicator(2)->Tick();
  cluster_->replicator(0)->PumpOnce();  // hears site 2 -> redelivers
  cluster_->replicator(2)->PumpOnce();  // receives the ceiling commit
  GcStats at2 = cluster_->site(2)->RunGarbageCollection();
  EXPECT_GT(at2.states_deleted, 0u);
}

TEST_F(ResilienceTest, ConsentTimeoutDefersAndRetriesCleanly) {
  ClusterOptions options;
  options.num_sites = 2;
  options.gc_mode = GcCoordination::kPessimistic;
  options.repl.heartbeat_every_ticks = 0;  // no failure detector: the peer
                                           // is unreachable but not "dead"
  options.repl.ceiling_deadline_ticks = 3;
  options.repl.ceiling_max_retries = 0;
  options.repl.deferred_retry_every_ticks = 8;
  OpenManual(options);

  auto s0 = cluster_->site(0)->CreateSession();
  for (int i = 0; i < 5; i++) {
    PutCommit(cluster_->site(0), s0.get(), "k", std::to_string(i));
  }
  PumpAll();
  cluster_->network()->Partition(0, 1);

  // The consent round cannot complete; at its deadline it parks on the
  // deferred list instead of wedging, and GC stays pessimistic.
  cluster_->replicator(0)->PlaceCeiling(s0.get());
  for (int i = 0; i < 5; i++) cluster_->replicator(0)->Tick();  // ticks 1..5
  EXPECT_EQ(cluster_->replicator(0)->deferred_consent_count(), 1u);
  GcStats during = cluster_->site(0)->RunGarbageCollection();
  EXPECT_EQ(during.states_deleted, 0u);

  // After the heal, the periodic deferred retry re-runs the round and the
  // ceiling lands.
  cluster_->network()->HealAll();
  for (int i = 0; i < 3; i++) cluster_->replicator(0)->Tick();  // ticks 6..8
  cluster_->replicator(1)->PumpOnce();
  cluster_->replicator(0)->PumpOnce();
  EXPECT_EQ(cluster_->replicator(0)->deferred_consent_count(), 0u);
  GcStats after = cluster_->site(0)->RunGarbageCollection();
  EXPECT_GT(after.states_deleted, 0u);
}

TEST_F(ClusterTest, ThreeSiteAllToAllConvergence) {
  Open(3);
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (size_t s = 0; s < 3; s++) {
    sessions.push_back(cluster_->site(s)->CreateSession());
  }
  for (int round = 0; round < 5; round++) {
    for (size_t s = 0; s < 3; s++) {
      PutCommit(cluster_->site(s), sessions[s].get(),
                "site" + std::to_string(s), std::to_string(round));
    }
  }
  ASSERT_TRUE(cluster_->WaitQuiescent());
  for (size_t s = 0; s < 3; s++) {
    EXPECT_EQ(cluster_->site(s)->dag()->state_count(), 16u);  // 1 + 15
  }
}

}  // namespace
}  // namespace tardis
