// tardis_chaos: deterministic fault-schedule exploration for the full
// replicated stack. Each schedule runs a seeded interleaving of client
// transactions over three durable TARDiS sites connected by a faulty
// network (drops, duplicates, reorders, partitions) while disk faults and
// crash-restart cycles fire along the way; every schedule contains at
// least one crash-restart. After the schedule a healing phase disarms all
// faults, drains the network, merges the surviving branches and checks
// four invariants:
//
//   1. Convergence: all sites end with identical State DAGs (same guid
//      set, same single leaf) and identical record contents.
//   2. Recovery equivalence: a crash-restarted site recovers exactly a
//      prefix of its pre-crash history — everything flushed before the
//      crash survives, nothing that never existed appears
//      (durable ⊆ recovered ⊆ pre-crash).
//   3. Branch isolation: every read returns a value whose writing state
//      is an ancestor of (or equal to) the reading state — branches never
//      leak across the DAG.
//   4. Error-not-crash: injected disk and network faults surface as
//      Status returns; the process never dies and the store stays usable.
//
// A failing schedule prints its seed and the exact command line that
// replays it deterministically.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "cluster/twopc.h"
#include "core/session.h"
#include "core/state.h"
#include "core/state_dag.h"
#include "core/tardis_store.h"
#include "core/transaction.h"
#include "fault/fault_env.h"
#include "fault/fault_registry.h"
#include "fault/faulty_transport.h"
#include "replication/network.h"
#include "replication/replicator.h"
#include "util/random.h"

namespace {

using namespace tardis;

constexpr uint32_t kSites = 3;
constexpr int kKeys = 8;

std::string KeyName(int k) { return "key" + std::to_string(k); }

/// One replicated site plus its fault plumbing and durability bookkeeping.
struct Site {
  std::string dir;
  std::unique_ptr<fault::FaultEnv> env;
  std::unique_ptr<TardisStore> store;
  std::unique_ptr<Replicator> repl;
  std::unique_ptr<ClientSession> session;
  /// Highest local sequence ever handed out here (across incarnations);
  /// re-established as the seq floor after a crash so a lost-but-escaped
  /// commit's guid is never reissued for different data.
  uint64_t max_seq_issued = 0;
  /// Guid set at the last successful Flush/Checkpoint: the lower bound on
  /// what recovery must bring back.
  std::set<GlobalStateId> durable_guids;
};

struct ScheduleStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t forks = 0;
  uint64_t crashes = 0;
  uint64_t injected_errors = 0;
  uint64_t reads_checked = 0;
};

/// Guids of every non-root state at a site.
std::set<GlobalStateId> GuidSet(TardisStore* store) {
  std::set<GlobalStateId> out;
  std::lock_guard<std::mutex> guard(store->dag()->Lock());
  for (const StatePtr& s : store->dag()->AllStatesLocked()) {
    if (!s->parents().empty()) out.insert(s->guid());
  }
  return out;
}

bool IsSubset(const std::set<GlobalStateId>& a,
              const std::set<GlobalStateId>& b) {
  for (const GlobalStateId& g : a) {
    if (b.count(g) == 0) return false;
  }
  return true;
}

class Schedule {
 public:
  Schedule(uint64_t seed, int steps, bool verbose)
      : seed_(seed), steps_(steps), verbose_(verbose), rng_(seed) {}

  /// Runs the schedule; returns true iff every invariant held.
  bool Run();

  const ScheduleStats& stats() const { return stats_; }

 private:
  bool Fail(const std::string& what) {
    fprintf(stderr,
            "SCHEDULE FAILED (seed=%llu): %s\n"
            "  replay: tardis_chaos --seed=%llu --schedules=1 --steps=%d\n",
            static_cast<unsigned long long>(seed_), what.c_str(),
            static_cast<unsigned long long>(seed_), steps_);
    return false;
  }

  bool OpenSite(uint32_t i);
  bool StepTxn(uint32_t site);
  bool StepForkPair(uint32_t site);
  bool CrashRestart(uint32_t site);
  void ArmRandomDiskFault();
  bool CheckReadIsolation(TardisStore* store, Transaction* txn,
                          const std::string& value);
  void RecordCommit(uint32_t site, const std::string& token);
  /// Pumps every site until the network is quiet. Returns messages moved.
  size_t DrainNetwork();
  bool Heal();
  bool MergeToSingleLeaf();
  bool CheckConvergence();

  const uint64_t seed_;
  const int steps_;
  const bool verbose_;
  Random rng_;
  ScheduleStats stats_;

  std::string base_dir_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<fault::FaultyTransport> fnet_;
  Site sites_[kSites];
  /// Every committed token value -> the guid of the state that wrote it.
  std::map<std::string, GlobalStateId> token_writer_;
  uint64_t next_token_ = 0;
};

bool Schedule::OpenSite(uint32_t i) {
  Site& s = sites_[i];
  TardisOptions o;
  o.dir = s.dir;
  o.backend = RecordBackend::kBTree;
  o.enable_commit_log = true;
  o.flush_mode = Wal::FlushMode::kAsync;
  o.cache_pages = 128;
  o.site_id = i;
  o.env = s.env.get();
  auto store = TardisStore::Open(o);
  if (!store.ok()) {
    return Fail("site " + std::to_string(i) +
                " failed to (re)open: " + store.status().ToString());
  }
  s.store = std::move(store.value());
  // A restarted incarnation must never reuse a sequence the previous one
  // may already have gossiped.
  s.store->dag()->AdvanceSeqFloor(s.max_seq_issued);
  // Heartbeats on: random Tick steps drive the failure detector and
  // digest anti-entropy under the same fault schedule as the data plane.
  ReplicatorOptions ropt;
  ropt.heartbeat_every_ticks = 4;
  ropt.suspect_after_ticks = 8;
  ropt.dead_after_ticks = 16;
  s.repl = std::make_unique<Replicator>(s.store.get(), fnet_.get(), i, ropt);
  s.repl->StartManual();
  s.session = s.store->CreateSession();
  return true;
}

void Schedule::RecordCommit(uint32_t site, const std::string& token) {
  Site& s = sites_[site];
  stats_.commits++;
  StatePtr c = s.session->last_commit();
  if (c == nullptr) return;
  token_writer_[token] = c->guid();
  if (c->guid().site == site && c->guid().seq > s.max_seq_issued) {
    s.max_seq_issued = c->guid().seq;
  }
}

bool Schedule::CheckReadIsolation(TardisStore* store, Transaction* txn,
                                  const std::string& value) {
  auto it = token_writer_.find(value);
  if (it == token_writer_.end()) return true;  // pre-seed value
  stats_.reads_checked++;
  StatePtr writer = store->dag()->ResolveGuid(it->second);
  if (writer == nullptr) {
    std::string dump = "site " + std::to_string(store->site_id()) + " dag:";
    for (const GlobalStateId& g : GuidSet(store)) dump += " " + g.ToString();
    fprintf(stderr, "%s\n", dump.c_str());
    return Fail("read token '" + value + "' but its writing state " +
                it->second.ToString() + " is unknown at the reading site");
  }
  for (StateId sid : txn->parents()) {
    StatePtr reader = store->dag()->Resolve(sid);
    if (reader == nullptr) continue;
    if (reader->guid() == writer->guid()) return true;
    if (StateDag::DescendantCheck(*writer, *reader)) return true;
  }
  return Fail("branch isolation violated: read token '" + value +
              "' written by " + it->second.ToString() +
              " which is not an ancestor of the reading state");
}

bool Schedule::StepTxn(uint32_t site) {
  Site& s = sites_[site];
  auto txn = s.store->Begin(s.session.get());
  if (!txn.ok()) {
    stats_.injected_errors++;  // must be an error Status, not a crash
    return true;
  }
  Transaction* t = txn.value().get();
  // Read a random key and check the value's provenance.
  std::string v;
  Status rs = t->Get(KeyName(static_cast<int>(rng_.Uniform(kKeys))), &v);
  if (rs.ok()) {
    if (!CheckReadIsolation(s.store.get(), t, v)) return false;
  } else if (!rs.IsNotFound()) {
    stats_.injected_errors++;
  }
  if (rng_.Uniform(10) == 0) {
    t->Abort();
    stats_.aborts++;
    return true;
  }
  const std::string token = "s" + std::to_string(site) + ".c" +
                            std::to_string(next_token_++);
  Status ps =
      t->Put(KeyName(static_cast<int>(rng_.Uniform(kKeys))), token);
  if (!ps.ok()) {
    stats_.injected_errors++;
    t->Abort();
    return true;
  }
  Status cs = t->Commit();
  if (cs.ok()) {
    RecordCommit(site, token);
  } else {
    stats_.aborts++;
  }
  return true;
}

// Two transactions off the same snapshot committing conflicting writes:
// exercises branch-on-conflict locally (a guaranteed fork).
bool Schedule::StepForkPair(uint32_t site) {
  Site& s = sites_[site];
  auto s2 = s.store->CreateSession();
  auto t1 = s.store->Begin(s.session.get());
  auto t2 = s.store->Begin(s2.get());
  if (!t1.ok() || !t2.ok()) {
    stats_.injected_errors++;
    return true;
  }
  const int key = static_cast<int>(rng_.Uniform(kKeys));
  std::string v;
  (void)t1.value()->Get(KeyName(key), &v);
  (void)t2.value()->Get(KeyName(key), &v);
  const std::string tok1 =
      "s" + std::to_string(site) + ".c" + std::to_string(next_token_++);
  const std::string tok2 =
      "s" + std::to_string(site) + ".c" + std::to_string(next_token_++);
  if (!t1.value()->Put(KeyName(key), tok1).ok() ||
      !t2.value()->Put(KeyName(key), tok2).ok()) {
    stats_.injected_errors++;
    t1.value()->Abort();
    t2.value()->Abort();
    return true;
  }
  if (t1.value()->Commit().ok()) RecordCommit(site, tok1);
  if (t2.value()->Commit().ok()) {
    stats_.commits++;
    StatePtr c = s2->last_commit();
    if (c != nullptr) {
      token_writer_[tok2] = c->guid();
      if (c->guid().site == site && c->guid().seq > s.max_seq_issued) {
        s.max_seq_issued = c->guid().seq;
      }
      stats_.forks++;
    }
  }
  return true;
}

void Schedule::ArmRandomDiskFault() {
  static const char* kPoints[] = {
      "wal.append.before_write",
      "wal.sync",
      "pager.write_page",
      "pager.read_page",
  };
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kError;
  spec.message = "chaos transient";
  spec.probability = 1.0;
  spec.max_triggers = 1;
  fault::FaultRegistry::Global().Arm(
      kPoints[rng_.Uniform(sizeof(kPoints) / sizeof(kPoints[0]))], spec);
}

bool Schedule::CrashRestart(uint32_t site) {
  Site& s = sites_[site];
  stats_.crashes++;
  const std::set<GlobalStateId> pre_crash = GuidSet(s.store.get());
  const std::set<GlobalStateId> durable = s.durable_guids;
  if (verbose_) {
    auto render = [](const std::set<GlobalStateId>& s) {
      std::string out;
      for (const GlobalStateId& g : s) out += " " + g.ToString();
      return out;
    };
    fprintf(stderr,
            "  [seed=%llu] crash-restart site %u\n    pre:%s\n    durable:%s\n",
            static_cast<unsigned long long>(seed_), site,
            render(pre_crash).c_str(), render(durable).c_str());
  }

  // The power fails mid-flight: freeze the environment, then tear the
  // process state down. Destructor-time flushes hit the frozen env and
  // fail, exactly as buffered writes die with a real process. Armed point
  // faults die with it too — transient device errors don't survive into
  // the next boot, and recovery itself must be able to run clean.
  fault::FaultRegistry::Global().DisarmAll();
  s.env->MarkCrashed();
  s.repl->Stop();
  s.repl.reset();
  s.session.reset();
  s.store.reset();
  Status cs = s.env->ApplyCrash();
  if (!cs.ok()) {
    return Fail("ApplyCrash on site " + std::to_string(site) +
                ": " + cs.ToString());
  }

  if (!OpenSite(site)) return false;  // recovery itself must succeed

  // Invariant 2: recovery equivalence.
  const std::set<GlobalStateId> recovered = GuidSet(s.store.get());
  if (verbose_) {
    std::string out;
    for (const GlobalStateId& g : recovered) out += " " + g.ToString();
    fprintf(stderr, "    recovered:%s\n", out.c_str());
  }
  if (!IsSubset(durable, recovered)) {
    return Fail("recovery lost flushed commits at site " +
                std::to_string(site) + " (durable " +
                std::to_string(durable.size()) + ", recovered " +
                std::to_string(recovered.size()) + ")");
  }
  if (!IsSubset(recovered, pre_crash)) {
    std::string invented;
    for (const GlobalStateId& g : recovered) {
      if (pre_crash.count(g) == 0) invented += " " + g.ToString();
    }
    return Fail("recovery invented commits at site " + std::to_string(site) +
                ":" + invented);
  }
  // Whatever recovery brought back is on disk now and will survive the
  // next crash; it is the new durable floor.
  s.durable_guids = recovered;

  // Make the recovered history servable to peers again (the in-memory
  // gossip archive died with the old incarnation) and ask the mesh for
  // everything missed while down.
  s.repl->ReArchiveFromStore();
  s.repl->RequestSync();
  return true;
}

size_t Schedule::DrainNetwork() {
  size_t moved = 0;
  while (true) {
    size_t round = 0;
    for (Site& s : sites_) round += s.repl->PumpOnce();
    moved += round;
    if (round == 0 && !fnet_->HasInflight()) return moved;
    if (round == 0) {
      // Held (reordered) frames release on Receive polls; keep polling.
      continue;
    }
  }
}

bool Schedule::Heal() {
  fault::FaultRegistry::Global().DisarmAll();
  fnet_->HealAll();
  fnet_->SetLossless(true);
  // Anti-entropy rounds: tick + drain until every site holds the same
  // history and nothing is parked waiting for a parent. No explicit
  // RequestSync — the heartbeat digests alone must repair everything the
  // faulty network dropped or reordered.
  // Note: pending_count() may legitimately stay nonzero — a commit that
  // escaped to a peer while its parent was lost forever in the origin's
  // crash is orphaned and can never apply anywhere. Convergence is about
  // the applied history, so the check compares DAGs, not queues.
  for (int round = 0; round < 64; round++) {
    for (Site& s : sites_) {
      // heartbeat_every_ticks is 4: four ticks guarantee a digest each.
      for (int t = 0; t < 4; t++) s.repl->Tick();
    }
    DrainNetwork();
    bool settled = true;
    const std::set<GlobalStateId> want = GuidSet(sites_[0].store.get());
    for (uint32_t i = 1; i < kSites; i++) {
      if (GuidSet(sites_[i].store.get()) != want) settled = false;
    }
    if (settled) return true;
  }
  std::string detail;
  for (Site& s : sites_) {
    detail += " " + std::to_string(GuidSet(s.store.get()).size()) + "/" +
              std::to_string(s.repl->pending_count());
  }
  return Fail("sites failed to converge after healing (states/pending:" +
              detail + ")");
}

bool Schedule::MergeToSingleLeaf() {
  // Merge at site 0 until one branch remains, re-syncing after each merge
  // so every site tracks the join. Conflicts resolve deterministically to
  // the lexicographically smallest candidate value.
  for (int iter = 0; iter < 128; iter++) {
    if (sites_[0].store->dag()->Leaves().size() <= 1) break;
    Site& s = sites_[0];
    auto merger = s.store->CreateSession();
    auto m = s.store->BeginMerge(merger.get());
    if (!m.ok()) {
      return Fail("BeginMerge failed during healing: " +
                  m.status().ToString());
    }
    Transaction* t = m.value().get();
    auto conflicts = t->FindConflictWrites(t->parents());
    if (!conflicts.ok()) {
      return Fail("FindConflictWrites failed: " +
                  conflicts.status().ToString());
    }
    for (const std::string& key : conflicts.value()) {
      std::string best;
      bool have = false;
      for (StateId sid : t->parents()) {
        std::string v;
        if (t->GetForId(key, sid, &v).ok() && (!have || v < best)) {
          best = std::move(v);
          have = true;
        }
      }
      if (have && !t->Put(key, best).ok()) {
        return Fail("merge Put failed for '" + key + "'");
      }
    }
    Status cs = t->Commit();
    if (!cs.ok()) {
      return Fail("merge commit failed: " + cs.ToString());
    }
    stats_.commits++;
    for (Site& site : sites_) site.repl->RequestSync();
    DrainNetwork();
  }
  for (uint32_t i = 0; i < kSites; i++) {
    const size_t leaves = sites_[i].store->dag()->Leaves().size();
    if (leaves != 1) {
      return Fail("site " + std::to_string(i) + " has " +
                  std::to_string(leaves) + " leaves after the merge phase");
    }
  }
  return true;
}

bool Schedule::CheckConvergence() {
  // Invariant 1, part 1: identical DAGs.
  const std::set<GlobalStateId> want = GuidSet(sites_[0].store.get());
  for (uint32_t i = 1; i < kSites; i++) {
    if (GuidSet(sites_[i].store.get()) != want) {
      return Fail("guid sets diverge between site 0 and site " +
                  std::to_string(i));
    }
  }
  const GlobalStateId leaf0 = sites_[0].store->dag()->Leaves()[0]->guid();
  for (uint32_t i = 1; i < kSites; i++) {
    if (!(sites_[i].store->dag()->Leaves()[0]->guid() == leaf0)) {
      return Fail("leaf guid diverges at site " + std::to_string(i));
    }
  }
  // Invariant 1, part 2: identical record contents. For every state and
  // every key it wrote, the visible value at that state must agree across
  // sites; and the final value of each key at the single leaf must agree.
  std::vector<std::map<std::string, std::string>> contents(kSites);
  for (uint32_t i = 0; i < kSites; i++) {
    Site& s = sites_[i];
    auto session = s.store->CreateSession();
    auto txn = s.store->Begin(session.get());
    if (!txn.ok()) {
      return Fail("post-heal Begin failed at site " + std::to_string(i) +
                  ": " + txn.status().ToString());
    }
    Transaction* t = txn.value().get();
    for (const GlobalStateId& g : want) {
      StatePtr state = s.store->dag()->ResolveGuid(g);
      if (state == nullptr) {
        return Fail("state " + g.ToString() + " vanished at site " +
                    std::to_string(i));
      }
      for (const std::string& key : state->write_set().keys()) {
        std::string v;
        Status gs = t->GetForId(key, state->id(), &v);
        if (!gs.ok()) {
          return Fail("GetForId(" + key + ", " + g.ToString() +
                      ") failed at site " + std::to_string(i) + ": " +
                      gs.ToString());
        }
        contents[i][g.ToString() + "/" + key] = v;
      }
    }
    for (int k = 0; k < kKeys; k++) {
      std::string v;
      Status gs = t->Get(KeyName(k), &v);
      if (gs.ok()) {
        contents[i]["leaf/" + KeyName(k)] = v;
      } else if (!gs.IsNotFound()) {
        return Fail("post-heal Get failed at site " + std::to_string(i) +
                    ": " + gs.ToString());
      }
    }
    t->Abort();
  }
  for (uint32_t i = 1; i < kSites; i++) {
    if (contents[i] != contents[0]) {
      return Fail("record contents diverge between site 0 and site " +
                  std::to_string(i));
    }
  }
  return true;
}

bool Schedule::Run() {
  fault::FaultRegistry& registry = fault::FaultRegistry::Global();
  registry.DisarmAll();
  registry.Reseed(seed_);

  base_dir_ = (std::filesystem::temp_directory_path() /
               ("tardis_chaos_" + std::to_string(getpid()) + "_" +
                std::to_string(seed_)))
                  .string();
  std::filesystem::remove_all(base_dir_);
  std::filesystem::create_directories(base_dir_);

  NetworkOptions nopt;
  nopt.seed = seed_;
  net_ = std::make_unique<SimNetwork>(kSites, nopt);
  fault::FaultyTransportOptions fopt;
  fopt.seed = seed_ * 0x9E3779B9u + 1;
  fopt.drop_prob = 0.05;
  fopt.duplicate_prob = 0.05;
  fopt.reorder_prob = 0.15;
  fopt.max_hold_polls = 6;
  fnet_ = std::make_unique<fault::FaultyTransport>(net_.get(), fopt);

  bool ok = true;
  for (uint32_t i = 0; i < kSites; i++) {
    sites_[i].dir = base_dir_ + "/site" + std::to_string(i);
    sites_[i].env = std::make_unique<fault::FaultEnv>(seed_ * kSites + i);
    if (!OpenSite(i)) {
      ok = false;
      break;
    }
  }

  // Every schedule performs at least one crash-restart.
  const int forced_crash_step = static_cast<int>(rng_.Uniform(steps_));

  for (int step = 0; ok && step < steps_; step++) {
    const uint32_t site = rng_.Uniform(kSites);
    if (step == forced_crash_step) {
      ok = CrashRestart(site);
      continue;
    }
    const uint32_t roll = rng_.Uniform(100);
    if (roll < 35) {
      ok = StepTxn(site);
    } else if (roll < 45) {
      ok = StepForkPair(site);
    } else if (roll < 60) {
      sites_[site].repl->PumpOnce();
    } else if (roll < 70) {
      // A replication time-step: heartbeats, liveness transitions and
      // deadline sweeps fire under the same seeded interleaving.
      sites_[site].repl->Tick();
      sites_[site].repl->PumpOnce();
    } else if (roll < 75) {
      const uint32_t other = (site + 1 + rng_.Uniform(kSites - 1)) % kSites;
      fnet_->Partition(site, other);
    } else if (roll < 79) {
      fnet_->HealAll();
    } else if (roll < 84) {
      ArmRandomDiskFault();
    } else if (roll < 90) {
      // Invariant 4 relies on this never dying: a Flush over an armed
      // fault point or a degraded commit log returns a Status.
      if (sites_[site].store->Flush().ok()) {
        sites_[site].durable_guids = GuidSet(sites_[site].store.get());
        if (verbose_) {
          fprintf(stderr, "  [step %d] flush site %u -> durable %zu\n", step,
                  site, sites_[site].durable_guids.size());
        }
      } else {
        stats_.injected_errors++;
      }
    } else if (roll < 93) {
      if (sites_[site].store->Checkpoint().ok()) {
        sites_[site].durable_guids = GuidSet(sites_[site].store.get());
        if (verbose_) {
          fprintf(stderr, "  [step %d] checkpoint site %u -> durable %zu\n",
                  step, site, sites_[site].durable_guids.size());
        }
      } else {
        stats_.injected_errors++;
      }
    } else if (roll < 96) {
      sites_[site].repl->RequestSync();
    } else {
      ok = CrashRestart(site);
    }
  }

  if (ok) ok = Heal();
  if (ok) ok = MergeToSingleLeaf();
  if (ok) ok = CheckConvergence();

  // Teardown: replicators before stores (metric callbacks), then wipe the
  // schedule's directories. A failing schedule keeps its files for triage.
  registry.DisarmAll();
  for (Site& s : sites_) {
    if (s.repl) s.repl->Stop();
    s.repl.reset();
    s.session.reset();
    s.store.reset();
  }
  if (ok) {
    std::filesystem::remove_all(base_dir_);
  } else {
    fprintf(stderr, "  site state kept under %s\n", base_dir_.c_str());
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Resilience schedules. Unlike the main schedule these never call
// RequestSync: heartbeat-driven anti-entropy and snapshot bootstrap must do
// every repair on their own.
// ---------------------------------------------------------------------------

/// A lighter-weight site for the resilience schedules: in-memory store, no
/// disk-fault plumbing — the adversary here is site death, not bad sectors.
struct ResilienceSite {
  std::unique_ptr<TardisStore> store;
  std::unique_ptr<Replicator> repl;
  std::unique_ptr<ClientSession> session;

  void Kill() {
    if (repl) repl->Stop();
    repl.reset();
    session.reset();
    store.reset();
  }
};

bool OpenResilienceSite(ResilienceSite* s, uint32_t i, Transport* net,
                        const ReplicatorOptions& ropt) {
  TardisOptions o;
  o.site_id = i;
  auto store = TardisStore::Open(o);
  if (!store.ok()) return false;
  s->store = std::move(store.value());
  s->repl = std::make_unique<Replicator>(s->store.get(), net, i, ropt);
  s->repl->StartManual();
  s->session = s->store->CreateSession();
  return true;
}

bool CommitValue(ResilienceSite* s, const std::string& key,
                 const std::string& value) {
  auto txn = s->store->Begin(s->session.get());
  if (!txn.ok()) return false;
  if (!txn.value()->Put(key, value).ok()) return false;
  return txn.value()->Commit().ok();
}

bool ResilienceFail(const char* family, uint64_t seed,
                    const std::string& what) {
  fprintf(stderr, "%s SCHEDULE FAILED (seed=%llu): %s\n", family,
          static_cast<unsigned long long>(seed), what.c_str());
  return false;
}

/// One site is killed outright (its store destroyed, its links severed), the
/// survivors commit far past the gossip archive horizon under a lossy
/// network, and a blank incarnation of the dead site rejoins. Convergence
/// must come from heartbeats alone: the survivors bootstrap the newcomer
/// with a snapshot (replay cannot cover the trimmed history) and
/// anti-entropy finishes the tail. Finally the rejoined site commits, which
/// only replicates safely if the snapshot restored its own sequence floor.
bool RunResilienceSchedule(uint64_t seed, bool verbose) {
  NetworkOptions nopt;
  nopt.seed = seed;
  SimNetwork net(kSites, nopt);
  fault::FaultyTransportOptions fopt;
  fopt.seed = seed * 0x9E3779B9u + 17;
  fopt.drop_prob = 0.10;
  fopt.duplicate_prob = 0.05;
  fopt.reorder_prob = 0.10;
  fopt.max_hold_polls = 4;
  fault::FaultyTransport fnet(&net, fopt);

  ReplicatorOptions ropt;
  ropt.heartbeat_every_ticks = 2;
  ropt.suspect_after_ticks = 4;
  ropt.dead_after_ticks = 8;
  ropt.archive_horizon = 64;  // small: forces the snapshot path on rejoin
  ropt.repair_batch = 32;
  ropt.snapshot_min_interval_ticks = 4;

  Random rng(seed);
  ResilienceSite sites[kSites];
  for (uint32_t i = 0; i < kSites; i++) {
    if (!OpenResilienceSite(&sites[i], i, &fnet, ropt)) {
      return ResilienceFail("RESILIENCE", seed, "site failed to open");
    }
  }
  auto fail = [&](const std::string& what) {
    return ResilienceFail("RESILIENCE", seed, what);
  };
  auto pump_live = [&]() {
    for (int spin = 0; spin < 200; spin++) {
      size_t moved = 0;
      for (ResilienceSite& s : sites) {
        if (s.repl) moved += s.repl->PumpOnce();
      }
      if (moved == 0) return;
    }
  };
  uint64_t token = 0;
  auto commit_at = [&](uint32_t i) {
    return CommitValue(&sites[i], KeyName(static_cast<int>(rng.Uniform(kKeys))),
                       "r" + std::to_string(i) + "." + std::to_string(token++));
  };

  // Phase A: warm-up traffic with everyone alive.
  for (int step = 0; step < 40; step++) {
    const uint32_t site = rng.Uniform(kSites);
    const uint32_t roll = rng.Uniform(100);
    if (roll < 50) {
      if (!commit_at(site)) return fail("warm-up commit failed");
    } else if (roll < 80) {
      sites[site].repl->Tick();
      sites[site].repl->PumpOnce();
    } else {
      sites[site].repl->PumpOnce();
    }
  }

  // Phase B: one site dies. Severing its links models the dead TCP peer:
  // gossip addressed to it is dropped, not queued for its next life.
  const uint32_t victim = rng.Uniform(kSites);
  const uint32_t live[2] = {(victim + 1) % kSites, (victim + 2) % kSites};
  sites[victim].Kill();
  fnet.Partition(victim, live[0]);
  fnet.Partition(victim, live[1]);

  // Survivors commit far past the archive horizon while ticking freely.
  for (int i = 0; i < 1100; i++) {
    const uint32_t site = live[rng.Uniform(2)];
    if (!commit_at(site)) return fail("survivor commit failed");
    if (rng.Uniform(4) == 0) {
      sites[site].repl->Tick();
      sites[site].repl->PumpOnce();
    }
  }
  pump_live();
  for (uint32_t i : live) {
    for (const Replicator::PeerHealth& p : sites[i].repl->PeerStates()) {
      if (p.site == victim && p.state != PeerLiveness::kDead) {
        return fail("survivor " + std::to_string(i) +
                    " never declared the dead site dead");
      }
    }
  }

  // Phase C: blank rejoin; converge on ticks alone.
  fnet.HealAll();
  if (!OpenResilienceSite(&sites[victim], victim, &fnet, ropt)) {
    return fail("victim failed to reopen");
  }
  bool converged = false;
  for (int round = 0; round < 600 && !converged; round++) {
    for (ResilienceSite& s : sites) s.repl->Tick();
    pump_live();
    const std::set<GlobalStateId> want = GuidSet(sites[0].store.get());
    converged = GuidSet(sites[1].store.get()) == want &&
                GuidSet(sites[2].store.get()) == want;
  }
  if (!converged) {
    std::string detail;
    for (ResilienceSite& s : sites) {
      detail += " " + std::to_string(GuidSet(s.store.get()).size());
    }
    return fail("blank rejoin failed to converge (states:" + detail + ")");
  }

  // The rejoined site must be writable and its commit must replicate.
  if (!CommitValue(&sites[victim], "rejoined", "yes")) {
    return fail("rejoined site could not commit");
  }
  converged = false;
  for (int round = 0; round < 200 && !converged; round++) {
    for (ResilienceSite& s : sites) s.repl->Tick();
    pump_live();
    const std::set<GlobalStateId> want = GuidSet(sites[victim].store.get());
    converged = GuidSet(sites[live[0]].store.get()) == want &&
                GuidSet(sites[live[1]].store.get()) == want;
  }
  if (!converged) return fail("post-rejoin commit did not replicate");

  if (verbose) {
    fprintf(stderr,
            "  resilience seed %llu: victim %u rejoined at %zu states\n",
            static_cast<unsigned long long>(seed), victim,
            GuidSet(sites[victim].store.get()).size());
  }
  for (ResilienceSite& s : sites) s.Kill();
  return true;
}

/// Pessimistic GC with a dead peer: a ceiling placed while one site is down
/// must still gain consent (the failure detector excludes the dead peer) so
/// GC runs on the survivors; when the site returns blank it is repaired,
/// the ceiling commit is redelivered, and GC completes there too.
bool RunGcResilienceSchedule(uint64_t seed, bool verbose) {
  NetworkOptions nopt;
  nopt.seed = seed;
  SimNetwork net(kSites, nopt);  // lossless fabric: consent math stays exact

  ReplicatorOptions ropt;
  ropt.gc_mode = GcCoordination::kPessimistic;
  ropt.heartbeat_every_ticks = 1;
  ropt.suspect_after_ticks = 2;
  ropt.dead_after_ticks = 4;
  ropt.ceiling_deadline_ticks = 4;
  ropt.ceiling_max_retries = 1;
  ropt.deferred_retry_every_ticks = 4;

  Random rng(seed);
  ResilienceSite sites[kSites];
  for (uint32_t i = 0; i < kSites; i++) {
    if (!OpenResilienceSite(&sites[i], i, &net, ropt)) {
      return ResilienceFail("GC-RESILIENCE", seed, "site failed to open");
    }
  }
  auto fail = [&](const std::string& what) {
    return ResilienceFail("GC-RESILIENCE", seed, what);
  };
  auto pump_all = [&]() {
    for (int spin = 0; spin < 200; spin++) {
      size_t moved = 0;
      for (ResilienceSite& s : sites) {
        if (s.repl) moved += s.repl->PumpOnce();
      }
      if (moved == 0) return;
    }
  };

  // A linear chain of commits at site 0, replicated everywhere.
  const int kChain = 8 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < kChain; i++) {
    if (!CommitValue(&sites[0], KeyName(i % kKeys),
                     "g" + std::to_string(i))) {
      return fail("chain commit failed");
    }
  }
  pump_all();

  // Kill a non-coordinator site and sever its links, then tick the
  // survivors until the failure detector declares it dead.
  const uint32_t victim = 1 + rng.Uniform(kSites - 1);
  const uint32_t other = (victim == 1) ? 2 : 1;
  sites[victim].Kill();
  net.Partition(victim, 0);
  net.Partition(victim, other);
  for (int t = 0; t < 6; t++) {
    sites[0].repl->Tick();
    sites[other].repl->Tick();
    pump_all();
  }
  bool dead_seen = false;
  for (const Replicator::PeerHealth& p : sites[0].repl->PeerStates()) {
    if (p.site == victim && p.state == PeerLiveness::kDead) dead_seen = true;
  }
  if (!dead_seen) return fail("coordinator never declared the victim dead");

  // Consent must complete within the deadline without the dead peer.
  sites[0].repl->PlaceCeiling(sites[0].session.get());
  pump_all();
  if (sites[0].repl->deferred_consent_count() != 0) {
    return fail("consent round was deferred despite a live quorum");
  }
  if (sites[0].store->RunGarbageCollection().states_deleted == 0) {
    return fail("coordinator GC deleted nothing after consent");
  }
  if (sites[other].store->RunGarbageCollection().states_deleted == 0) {
    return fail("live peer GC deleted nothing after ceiling commit");
  }

  // The victim returns blank: repair + ceiling redelivery must let GC
  // complete there as well, and all DAGs must agree afterwards.
  net.HealAll();
  if (!OpenResilienceSite(&sites[victim], victim, &net, ropt)) {
    return fail("victim failed to reopen");
  }
  uint64_t victim_deleted = 0;
  for (int round = 0; round < 200 && victim_deleted == 0; round++) {
    for (ResilienceSite& s : sites) s.repl->Tick();
    pump_all();
    victim_deleted =
        sites[victim].store->RunGarbageCollection().states_deleted;
  }
  if (victim_deleted == 0) {
    return fail("returned site never completed GC from redelivered ceiling");
  }
  const std::set<GlobalStateId> want = GuidSet(sites[0].store.get());
  for (uint32_t i = 1; i < kSites; i++) {
    if (GuidSet(sites[i].store.get()) != want) {
      return fail("DAGs diverged after GC at site " + std::to_string(i));
    }
  }
  if (verbose) {
    fprintf(stderr,
            "  gc-resilience seed %llu: victim %u, chain %d, gc at victim "
            "deleted %llu\n",
            static_cast<unsigned long long>(seed), victim, kChain,
            static_cast<unsigned long long>(victim_deleted));
  }
  for (ResilienceSite& s : sites) s.Kill();
  return true;
}

// ---------------------------------------------------------------------------
// Cross-partition 2PC schedules (src/cluster/). The adversary is a router
// and/or one participant dying between prepare and decide; the invariants
// are the protocol's: both participants reach the SAME decision via
// cooperative termination, an aborted transaction leaves no write in
// either partition, a committed one is readable in both, and a concurrent
// conflicting commit forks the DAG instead of killing the transaction.
// ---------------------------------------------------------------------------

/// Reads `key` at the store's current leaf; sentinels for miss/error.
std::string ReadKey(TardisStore* store, const std::string& key) {
  auto session = store->CreateSession();
  auto txn = store->Begin(session.get());
  if (!txn.ok()) return "<begin-error>";
  std::string v;
  Status s = txn.value()->Get(key, &v);
  txn.value()->Abort();
  if (s.IsNotFound()) return "<notfound>";
  return s.ok() ? v : "<error>";
}

/// One seeded 2PC crash schedule over two single-site "partitions" wired
/// together in process (query_peer is a direct call, no sockets, grace 0
/// so cooperative termination is immediate and deterministic). Cases:
///
///   0: the router dies after both prepares, before any decide
///      -> all-reachable-unknown, both presume abort;
///   1: decide-commit reaches partition 0 only, then the router dies
///      -> partition 1 learns commit from its peer;
///   2: participant 1 crashes after prepare and recovers from twopc.log,
///      router dies -> in-doubt survives the crash, then aborts;
///   3: both decides land, then participant 1 crashes and recovers
///      -> the logged decide keeps it out of doubt, nothing re-applies.
///
/// An independent coin lands a conflicting local commit on partition 0's
/// 2PC key inside the window; if the decision ends commit, the DAG there
/// must fork (branch-on-conflict), never abort.
bool RunTwoPcSchedule(uint64_t seed, bool verbose) {
  auto fail = [&](const std::string& what) {
    return ResilienceFail("TWOPC", seed, what);
  };
  Random rng(seed);
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("tardis_chaos_twopc_" + std::to_string(seed)))
          .string();
  std::filesystem::remove_all(base);

  std::unique_ptr<TardisStore> stores[2];
  std::unique_ptr<cluster::TwoPhaseParticipant> parts[2];
  auto open_participant = [&](int p) -> bool {
    cluster::TwoPhaseOptions o;
    o.dir = base + "/p" + std::to_string(p);
    std::filesystem::create_directories(o.dir);
    o.self_endpoint = "p" + std::to_string(p);
    o.resolve_grace_ms = 0;  // the schedule drives ResolveInDoubt by hand
    o.query_peer = [&parts](const std::string& endpoint, uint64_t txn_id,
                            cluster::TwoPhaseDecision* decision) {
      const int peer = endpoint == "p0" ? 0 : 1;
      if (!parts[peer]) return Status::Unavailable("peer down");
      *decision = parts[peer]->HandleTxnStatus(txn_id).decision;
      return Status::OK();
    };
    parts[p] = std::make_unique<cluster::TwoPhaseParticipant>(
        stores[p].get(), std::move(o));
    return parts[p]->Recover().ok();
  };
  for (int p = 0; p < 2; p++) {
    TardisOptions o;
    o.site_id = static_cast<uint32_t>(p);
    auto store = TardisStore::Open(o);
    if (!store.ok()) return fail("store failed to open");
    stores[p] = std::move(store.value());
    if (!open_participant(p)) return fail("participant failed to open");
  }

  // The "router": prepare both participants.
  const uint64_t txn_id = 0xC0FFEE00000000ull + seed;
  const std::string value = "twopc." + std::to_string(seed);
  for (int p = 0; p < 2; p++) {
    ReplMessage prep;
    prep.type = ReplMessage::Type::kPrepare;
    prep.txn_id = txn_id;
    prep.endpoints = {"p0", "p1"};
    prep.commit.writes.emplace_back(
        "x" + std::to_string(p), std::make_shared<const std::string>(value));
    cluster::TwoPhaseReply ack;
    if (!parts[p]->HandlePrepare(prep, &ack).ok() ||
        ack.decision != cluster::TwoPhaseDecision::kCommit) {
      return fail("participant did not vote commit at prepare");
    }
  }

  // Maybe a conflicting local commit lands on partition 0's 2PC key
  // inside the decision window.
  const bool conflict = rng.Uniform(2) == 0;
  const uint64_t forks_before =
      stores[0]->metrics()->CounterTotal("tardis_txn_forks_total");
  if (conflict) {
    auto session = stores[0]->CreateSession();
    auto txn = stores[0]->Begin(session.get());
    if (!txn.ok() || !txn.value()->Put("x0", "rogue").ok() ||
        !txn.value()->Commit().ok()) {
      return fail("conflicting local commit failed");
    }
  }

  const uint32_t scenario = rng.Uniform(4);
  auto decide = [&](int p) -> bool {
    cluster::TwoPhaseReply ack;
    return parts[p]
               ->HandleDecide(txn_id, cluster::TwoPhaseDecision::kCommit,
                              &ack)
               .ok() &&
           ack.decision == cluster::TwoPhaseDecision::kCommit;
  };
  auto crash_participant = [&](int p) -> bool {
    parts[p].reset();  // aborts any staged txn, closes the log
    return open_participant(p);
  };
  switch (scenario) {
    case 0:
      break;  // router dies before any decide
    case 1:
      if (!decide(0)) return fail("decide at partition 0 failed");
      if (!decide(0)) return fail("duplicate decide was not idempotent");
      break;
    case 2:
      if (!crash_participant(1)) return fail("participant 1 crash-restart");
      if (parts[1]->in_doubt_count() != 1) {
        return fail("recovery lost the in-doubt prepare");
      }
      break;
    case 3:
      if (!decide(0) || !decide(1)) return fail("decide failed");
      if (!crash_participant(1)) return fail("participant 1 crash-restart");
      if (parts[1]->in_doubt_count() != 0) {
        return fail("logged decide came back in doubt after recovery");
      }
      break;
  }

  // Cooperative termination: grace 0 means every pending transaction is
  // immediately overdue. Two passes settle any order.
  for (int round = 0;
       round < 4 && (parts[0]->in_doubt_count() + parts[1]->in_doubt_count());
       round++) {
    parts[0]->ResolveInDoubt();
    parts[1]->ResolveInDoubt();
  }
  if (parts[0]->in_doubt_count() != 0 || parts[1]->in_doubt_count() != 0) {
    return fail("in-doubt transactions never resolved");
  }

  // Invariant: one decision, the right one, on both sides.
  const cluster::TwoPhaseDecision d0 = parts[0]->DecisionFor(txn_id);
  const cluster::TwoPhaseDecision d1 = parts[1]->DecisionFor(txn_id);
  if (d0 != d1) return fail("participants disagree on the outcome");
  const bool committed = d0 == cluster::TwoPhaseDecision::kCommit;
  const bool expect_commit = scenario == 1 || scenario == 3;
  if (committed != expect_commit) {
    return fail(std::string("scenario ") + std::to_string(scenario) +
                " ended in " + cluster::TwoPhaseDecisionName(d0));
  }

  // Invariant: atomicity of the write set.
  const std::string x0 = ReadKey(stores[0].get(), "x0");
  const std::string x1 = ReadKey(stores[1].get(), "x1");
  if (committed) {
    if (x1 != value) return fail("committed write missing at partition 1");
    if (!conflict && x0 != value) {
      return fail("committed write missing at partition 0");
    }
    // Under a conflict the decide-commit must FORK partition 0's DAG
    // (branch-on-conflict), never abort; either branch tip may be the
    // one the read lands on.
    if (conflict &&
        stores[0]->metrics()->CounterTotal("tardis_txn_forks_total") <=
            forks_before) {
      return fail("conflicting decide-commit did not fork the DAG");
    }
  } else {
    if (x1 != "<notfound>") return fail("aborted write leaked at partition 1");
    const std::string expect0 = conflict ? "rogue" : "<notfound>";
    if (x0 != expect0) return fail("aborted write leaked at partition 0");
  }

  if (verbose) {
    fprintf(stderr,
            "  twopc seed %llu: scenario %u conflict=%d -> %s\n",
            static_cast<unsigned long long>(seed), scenario, conflict ? 1 : 0,
            cluster::TwoPhaseDecisionName(d0));
  }
  parts[0].reset();
  parts[1].reset();
  std::filesystem::remove_all(base);
  return true;
}

// ---------------------------------------------------------------------------
// Client-retry schedules (src/client/, src/core/session.h, DESIGN.md §13).
// The adversary is the network between a retrying client and the fleet:
// requests vanish before the site sees them, replies vanish after the
// commit applied, the serving site dies mid-session, and a router decide
// is lost between 2PC partitions. The invariant is exactly-once: however
// many times the client re-sends a (session, seq) write, it applies at
// most once, across failover and across crash-restart.
// ---------------------------------------------------------------------------

/// Server-side sessioned write path, exactly as tardisd executes it:
/// consult the dedup table first, otherwise commit with the session tag.
/// `*deduped` reports which path answered; `*guid` the commit's identity.
bool SessionedCommit(TardisStore* store, ClientSession* session,
                     uint64_t sid, uint64_t seq, const std::string& key,
                     const std::string& value, GlobalStateId* guid,
                     bool* deduped) {
  if (store->session_dedup()->Lookup(sid, seq, guid)) {
    *deduped = true;
    return true;
  }
  *deduped = false;
  auto txn = store->Begin(session);
  if (!txn.ok()) return false;
  txn.value()->SetSessionTag(sid, seq);
  if (!txn.value()->Put(key, value).ok()) return false;
  if (!txn.value()->Commit().ok()) return false;
  *guid = session->last_commit()->guid();
  return true;
}

/// One seeded client-retry schedule, three sub-adversaries:
///
///   A. A lossy single site (durable, synchronous WAL): every logical
///      write runs a drop-request / drop-reply / deliver lottery until
///      acked. Exactly-once must hold while the store is up, and the
///      dedup table must survive a crash-restart via commit-log replay —
///      replaying every (session, seq) after reopen adds no state.
///   B. Failover under read-your-writes floors: tagged writes land at
///      site 0; before replication has run, site 1 must refuse the
///      session's floors (the ERR BEHIND path) though a stale-ok
///      degraded read is allowed; once anti-entropy catches up the
///      client retries its unacked write at site 1 and must be answered
///      from dedup with the ORIGIN site's guid.
///   C. 2PC under a derived txn id: a decide is lost and the router
///      dies; the client re-runs the whole round under the SAME
///      DeriveSessionTxnId and both partitions settle on one commit,
///      applied once. A second transaction whose first round is presumed
///      abort retries under a bumped attempt (fresh txn id) and commits.
bool RunRetrySchedule(uint64_t seed, bool verbose) {
  auto fail = [&](const std::string& what) {
    return ResilienceFail("RETRY", seed, what);
  };
  Random rng(seed);
  const uint64_t sid = (seed << 8) | 0x51;  // nonzero by construction

  // --- A. Lossy single durable site + crash-restart replay. ---
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("tardis_chaos_retry_" + std::to_string(seed)))
          .string();
  std::filesystem::remove_all(base);
  const int logical = 10 + static_cast<int>(rng.Uniform(8));
  std::map<uint64_t, GlobalStateId> acked;  // seq -> guid the client saw
  uint64_t send_attempts = 0;
  size_t states_after_traffic = 0;
  {
    TardisOptions o;
    o.dir = base;
    o.backend = RecordBackend::kBTree;
    o.flush_mode = Wal::FlushMode::kSync;
    auto store_or = TardisStore::Open(o);
    if (!store_or.ok()) return fail("durable store failed to open");
    std::unique_ptr<TardisStore> store = std::move(store_or.value());
    auto session = store->CreateSession();
    for (int i = 1; i <= logical; i++) {
      const std::string key = "rk" + std::to_string(i);
      const std::string value = "rv" + std::to_string(i);
      bool done = false;
      for (int attempt = 0; attempt < 64 && !done; attempt++) {
        const uint32_t roll = rng.Uniform(3);
        send_attempts++;
        if (roll == 0) continue;  // request lost before the site saw it
        GlobalStateId guid;
        bool deduped = false;
        if (!SessionedCommit(store.get(), session.get(), sid,
                             static_cast<uint64_t>(i), key, value, &guid,
                             &deduped)) {
          return fail("sessioned commit failed");
        }
        if (roll == 1) continue;  // reply lost: client retries same seq
        acked[static_cast<uint64_t>(i)] = guid;
        done = true;
      }
      if (!done) return fail("client starved: no ack in 64 attempts");
    }
    // Exactly-once while up: one commit per logical write, no duplicate
    // (session, seq) ever recorded, every key holds its value.
    const uint64_t commits =
        store->metrics()->CounterTotal("tardis_txn_commits_total");
    if (commits != static_cast<uint64_t>(logical)) {
      return fail("expected " + std::to_string(logical) + " commits, got " +
                  std::to_string(commits) + " from " +
                  std::to_string(send_attempts) + " attempts");
    }
    if (store->session_dedup()->duplicates() != 0) {
      return fail("dedup recorded a duplicate commit on the lossy site");
    }
    for (int i = 1; i <= logical; i++) {
      if (ReadKey(store.get(), "rk" + std::to_string(i)) !=
          "rv" + std::to_string(i)) {
        return fail("rk" + std::to_string(i) + " lost its value");
      }
    }
    states_after_traffic = GuidSet(store.get()).size();
    Status s = store->Flush();
    if (!s.ok()) return fail("flush failed: " + s.ToString());
  }  // SIGKILL: the store is dropped without a clean shutdown path
  {
    TardisOptions o;
    o.dir = base;
    o.backend = RecordBackend::kBTree;
    o.flush_mode = Wal::FlushMode::kSync;
    auto store_or = TardisStore::Open(o);
    if (!store_or.ok()) return fail("store failed to reopen after crash");
    std::unique_ptr<TardisStore> store = std::move(store_or.value());
    auto session = store->CreateSession();
    if (GuidSet(store.get()).size() != states_after_traffic) {
      return fail("recovery changed the state count");
    }
    // The dedup table must have been rebuilt from the commit log: every
    // acked (session, seq) answers from dedup with its original guid,
    // and replaying the whole session adds nothing.
    for (const auto& [seq, guid] : acked) {
      GlobalStateId got;
      bool deduped = false;
      if (!SessionedCommit(store.get(), session.get(), sid, seq,
                           "rk" + std::to_string(seq), "replay", &got,
                           &deduped)) {
        return fail("replay commit failed after restart");
      }
      if (!deduped) {
        return fail("seq " + std::to_string(seq) +
                    " re-executed after crash-restart");
      }
      if (!(got == guid)) {
        return fail("seq " + std::to_string(seq) +
                    " answered with the wrong guid after restart");
      }
    }
    if (GuidSet(store.get()).size() != states_after_traffic) {
      return fail("post-restart replay created new states");
    }
  }
  std::filesystem::remove_all(base);

  // --- B. Failover under read-your-writes floors. ---
  {
    NetworkOptions nopt;
    nopt.seed = seed * 31 + 7;
    SimNetwork net(kSites, nopt);
    ReplicatorOptions ropt;
    ropt.heartbeat_every_ticks = 2;
    ropt.suspect_after_ticks = 4;
    ropt.dead_after_ticks = 8;
    ResilienceSite sites[kSites];
    for (uint32_t i = 0; i < kSites; i++) {
      if (!OpenResilienceSite(&sites[i], i, &net, ropt)) {
        return fail("failover site failed to open");
      }
    }
    auto pump = [&]() {
      for (int spin = 0; spin < 200; spin++) {
        size_t moved = 0;
        for (ResilienceSite& s : sites) {
          if (s.repl) moved += s.repl->PumpOnce();
        }
        if (moved == 0) return;
      }
    };
    const uint64_t fsid = sid ^ 0xF417;
    SessionHeader floors_probe;
    floors_probe.session_id = fsid;
    const int writes = 3 + static_cast<int>(rng.Uniform(4));
    GlobalStateId last_guid;
    for (int i = 1; i <= writes; i++) {
      GlobalStateId guid;
      bool deduped = false;
      if (!SessionedCommit(&*sites[0].store, sites[0].session.get(), fsid,
                           static_cast<uint64_t>(i),
                           "fk" + std::to_string(i), "fv" + std::to_string(i),
                           &guid, &deduped) ||
          deduped) {
        return fail("failover seed write failed");
      }
      last_guid = guid;
      // The client merges each acked guid into its floor set.
      bool found = false;
      for (auto& [site, seq] : floors_probe.floors) {
        if (site == guid.site) {
          seq = std::max(seq, guid.seq);
          found = true;
        }
      }
      if (!found) floors_probe.floors.emplace_back(guid.site, guid.seq);
    }
    // Replication has not run: site 1 cannot cover this session's floors
    // (tardisd would answer ERR BEHIND), but a stale-ok degraded read is
    // still allowed — it just sees the pre-session world.
    if (SessionFloorsCovered(floors_probe, 1, sites[1].store->dag()->local_seq(),
                             sites[1].repl->AppliedFloors())) {
      return fail("site 1 claimed to cover floors it never applied");
    }
    if (ReadKey(&*sites[1].store, "fk1") != "<notfound>") {
      return fail("degraded read saw a value that never replicated");
    }
    // Anti-entropy catches site 1 up, then site 0 dies.
    bool covered = false;
    for (int round = 0; round < 400 && !covered; round++) {
      for (ResilienceSite& s : sites) {
        if (s.repl) s.repl->Tick();
      }
      pump();
      covered = SessionFloorsCovered(floors_probe, 1,
                                     sites[1].store->dag()->local_seq(),
                                     sites[1].repl->AppliedFloors());
    }
    if (!covered) return fail("site 1 never covered the session floors");
    sites[0].Kill();
    net.Partition(0, 1);
    net.Partition(0, 2);
    // The reply to the LAST write was lost: the client retries it at
    // site 1, which must answer from dedup with the ORIGIN guid — the
    // replicated CommitRecord carried the session tag.
    GlobalStateId got;
    bool deduped = false;
    if (!SessionedCommit(&*sites[1].store, sites[1].session.get(), fsid,
                         static_cast<uint64_t>(writes),
                         "fk" + std::to_string(writes), "retry-after-failover",
                         &got, &deduped)) {
      return fail("failover retry failed");
    }
    if (!deduped) return fail("failover retry re-executed the write");
    if (!(got == last_guid)) {
      return fail("failover retry answered with the wrong guid");
    }
    if (sites[1].store->session_dedup()->duplicates() != 0) {
      return fail("failover produced a duplicate commit");
    }
    // The session continues on the new site: the next seq executes fresh.
    if (!SessionedCommit(&*sites[1].store, sites[1].session.get(), fsid,
                         static_cast<uint64_t>(writes + 1), "fk_next", "fv",
                         &got, &deduped) ||
        deduped) {
      return fail("post-failover write did not execute at the new site");
    }
    if (got.site != 1) return fail("post-failover commit has the wrong origin");
    for (ResilienceSite& s : sites) s.Kill();
  }

  // --- C. 2PC retry under a derived transaction id. ---
  {
    const std::string tbase =
        (std::filesystem::temp_directory_path() /
         ("tardis_chaos_retry2pc_" + std::to_string(seed)))
            .string();
    std::filesystem::remove_all(tbase);
    std::unique_ptr<TardisStore> stores[2];
    std::unique_ptr<cluster::TwoPhaseParticipant> parts[2];
    auto open_participant = [&](int p) -> bool {
      cluster::TwoPhaseOptions o;
      o.dir = tbase + "/p" + std::to_string(p);
      std::filesystem::create_directories(o.dir);
      o.self_endpoint = "p" + std::to_string(p);
      o.resolve_grace_ms = 0;
      o.query_peer = [&parts](const std::string& endpoint, uint64_t txn_id,
                              cluster::TwoPhaseDecision* decision) {
        const int peer = endpoint == "p0" ? 0 : 1;
        if (!parts[peer]) return Status::Unavailable("peer down");
        *decision = parts[peer]->HandleTxnStatus(txn_id).decision;
        return Status::OK();
      };
      parts[p] = std::make_unique<cluster::TwoPhaseParticipant>(
          stores[p].get(), std::move(o));
      return parts[p]->Recover().ok();
    };
    for (int p = 0; p < 2; p++) {
      TardisOptions o;
      o.site_id = static_cast<uint32_t>(p);
      auto store = TardisStore::Open(o);
      if (!store.ok()) return fail("2pc store failed to open");
      stores[p] = std::move(store.value());
      if (!open_participant(p)) return fail("2pc participant failed to open");
    }
    auto round = [&](uint64_t txn_id, const std::string& value, bool decide0,
                     bool decide1) -> bool {
      for (int p = 0; p < 2; p++) {
        ReplMessage prep;
        prep.type = ReplMessage::Type::kPrepare;
        prep.txn_id = txn_id;
        prep.endpoints = {"p0", "p1"};
        prep.commit.writes.emplace_back(
            "y" + std::to_string(p),
            std::make_shared<const std::string>(value));
        cluster::TwoPhaseReply ack;
        if (!parts[p]->HandlePrepare(prep, &ack).ok()) return false;
      }
      for (int p = 0; p < 2; p++) {
        if ((p == 0 && !decide0) || (p == 1 && !decide1)) continue;
        cluster::TwoPhaseReply ack;
        if (!parts[p]
                 ->HandleDecide(txn_id, cluster::TwoPhaseDecision::kCommit,
                                &ack)
                 .ok()) {
          return false;
        }
      }
      return true;
    };
    // Round 1: the decide to partition 1 is lost, then the router dies.
    // The client retries the WHOLE round under the same derived id; the
    // duplicate prepare re-acks, the duplicate decide is idempotent.
    const uint64_t txn1 = DeriveSessionTxnId(sid, 1, 0);
    const size_t s0_before = GuidSet(stores[0].get()).size();
    const size_t s1_before = GuidSet(stores[1].get()).size();
    if (!round(txn1, "once", true, false)) return fail("2pc round 1 failed");
    if (!round(txn1, "once", true, true)) return fail("2pc retry failed");
    for (int r = 0;
         r < 4 && (parts[0]->in_doubt_count() + parts[1]->in_doubt_count());
         r++) {
      parts[0]->ResolveInDoubt();
      parts[1]->ResolveInDoubt();
    }
    if (parts[0]->DecisionFor(txn1) != cluster::TwoPhaseDecision::kCommit ||
        parts[1]->DecisionFor(txn1) != cluster::TwoPhaseDecision::kCommit) {
      return fail("retried 2pc did not settle on commit at both partitions");
    }
    if (GuidSet(stores[0].get()).size() != s0_before + 1 ||
        GuidSet(stores[1].get()).size() != s1_before + 1) {
      return fail("retried 2pc applied a write twice");
    }
    if (ReadKey(stores[0].get(), "y0") != "once" ||
        ReadKey(stores[1].get(), "y1") != "once") {
      return fail("retried 2pc write missing");
    }
    // Round 2: partition 1 never hears the prepare and the router dies;
    // cooperative termination presumes abort. The client re-derives the
    // txn id under a bumped attempt and the fresh round commits.
    const uint64_t txn2a = DeriveSessionTxnId(sid, 2, 0);
    {
      ReplMessage prep;
      prep.type = ReplMessage::Type::kPrepare;
      prep.txn_id = txn2a;
      prep.endpoints = {"p0", "p1"};
      prep.commit.writes.emplace_back(
          "y0", std::make_shared<const std::string>("lost"));
      cluster::TwoPhaseReply ack;
      if (!parts[0]->HandlePrepare(prep, &ack).ok()) {
        return fail("2pc round 2 prepare failed");
      }
    }
    for (int r = 0; r < 4 && parts[0]->in_doubt_count(); r++) {
      parts[0]->ResolveInDoubt();
      parts[1]->ResolveInDoubt();
    }
    if (parts[0]->DecisionFor(txn2a) != cluster::TwoPhaseDecision::kAbort) {
      return fail("half-prepared 2pc round did not presume abort");
    }
    const uint64_t txn2b = DeriveSessionTxnId(sid, 2, 1);
    if (txn2b == txn2a) return fail("attempt bump did not change the txn id");
    if (!round(txn2b, "second", true, true)) return fail("2pc reissue failed");
    if (parts[0]->DecisionFor(txn2b) != cluster::TwoPhaseDecision::kCommit ||
        parts[1]->DecisionFor(txn2b) != cluster::TwoPhaseDecision::kCommit) {
      return fail("reissued 2pc did not commit");
    }
    if (ReadKey(stores[0].get(), "y0") != "second") {
      return fail("reissued 2pc write missing at partition 0");
    }
    parts[0].reset();
    parts[1].reset();
    std::filesystem::remove_all(tbase);
  }

  if (verbose) {
    fprintf(stderr,
            "  retry seed %llu: %d logical writes acked over %llu attempts, "
            "all exactly-once\n",
            static_cast<unsigned long long>(seed), logical,
            static_cast<unsigned long long>(send_attempts));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t base_seed = 1;
  int schedules = 50;
  int steps = 160;
  int resilience = 10;
  bool verbose = false;
  for (int i = 1; i < argc; i++) {
    if (strncmp(argv[i], "--seed=", 7) == 0) {
      base_seed = strtoull(argv[i] + 7, nullptr, 10);
    } else if (strncmp(argv[i], "--schedules=", 12) == 0) {
      schedules = atoi(argv[i] + 12);
    } else if (strncmp(argv[i], "--steps=", 8) == 0) {
      steps = atoi(argv[i] + 8);
    } else if (strncmp(argv[i], "--resilience=", 13) == 0) {
      resilience = atoi(argv[i] + 13);
    } else if (strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      fprintf(stderr,
              "usage: %s [--schedules=N] [--seed=S] [--steps=K] "
              "[--resilience=N] [--verbose]\n",
              argv[0]);
      return 2;
    }
  }

  printf("tardis_chaos: %d schedules x %d steps, seeds %llu..%llu\n",
         schedules, steps, static_cast<unsigned long long>(base_seed),
         static_cast<unsigned long long>(base_seed + schedules - 1));
  ScheduleStats total;
  std::vector<uint64_t> failed;
  for (int i = 0; i < schedules; i++) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(i);
    Schedule schedule(seed, steps, verbose);
    if (!schedule.Run()) failed.push_back(seed);
    const ScheduleStats& st = schedule.stats();
    total.commits += st.commits;
    total.aborts += st.aborts;
    total.forks += st.forks;
    total.crashes += st.crashes;
    total.injected_errors += st.injected_errors;
    total.reads_checked += st.reads_checked;
  }

  printf("tardis_chaos: %llu commits, %llu aborts, %llu forks, "
         "%llu crash-restarts, %llu injected errors, %llu reads checked\n",
         static_cast<unsigned long long>(total.commits),
         static_cast<unsigned long long>(total.aborts),
         static_cast<unsigned long long>(total.forks),
         static_cast<unsigned long long>(total.crashes),
         static_cast<unsigned long long>(total.injected_errors),
         static_cast<unsigned long long>(total.reads_checked));
  // Resilience families: blank rejoin past the archive horizon,
  // pessimistic GC with a dead peer, cross-partition 2PC with the router
  // and a participant crashing between prepare and decide, and client
  // retry/failover exactly-once under lost requests, lost replies and
  // crash-restart. Seeds offset so they never overlap with the main
  // schedule's seed range under default flags.
  int resilience_failed = 0;
  if (resilience > 0) {
    printf("tardis_chaos: %d resilience + %d gc-resilience + %d twopc + "
           "%d retry schedules\n",
           resilience, resilience, resilience, resilience);
    for (int i = 0; i < resilience; i++) {
      const uint64_t seed = base_seed + 100000 + static_cast<uint64_t>(i);
      if (!RunResilienceSchedule(seed, verbose)) resilience_failed++;
      if (!RunGcResilienceSchedule(seed, verbose)) resilience_failed++;
    }
    for (int i = 0; i < resilience; i++) {
      const uint64_t seed = base_seed + 200000 + static_cast<uint64_t>(i);
      if (!RunTwoPcSchedule(seed, verbose)) resilience_failed++;
    }
    for (int i = 0; i < resilience; i++) {
      const uint64_t seed = base_seed + 300000 + static_cast<uint64_t>(i);
      if (!RunRetrySchedule(seed, verbose)) resilience_failed++;
    }
  }

  if (!failed.empty() || resilience_failed > 0) {
    if (!failed.empty()) {
      fprintf(stderr, "tardis_chaos: %zu/%d schedules FAILED; seeds:",
              failed.size(), schedules);
      for (uint64_t s : failed) {
        fprintf(stderr, " %llu", static_cast<unsigned long long>(s));
      }
      fprintf(stderr, "\n");
    }
    if (resilience_failed > 0) {
      fprintf(stderr, "tardis_chaos: %d resilience schedules FAILED\n",
              resilience_failed);
    }
    return 1;
  }
  printf("tardis_chaos: all %d schedules passed\n",
         schedules + 4 * resilience);
  return 0;
}
