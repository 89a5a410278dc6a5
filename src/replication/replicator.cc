#include "replication/replicator.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/state.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace tardis {

namespace {
/// Bound on stashed ceiling-commit guids (states not yet replicated) and
/// on the re-delivery list for ceilings committed around a dead peer.
constexpr size_t kMaxStashedCeilings = 256;
}  // namespace

Replicator::Replicator(TardisStore* store, Transport* net, uint32_t site_id,
                       ReplicatorOptions options)
    : store_(store), net_(net), site_id_(site_id), options_(options) {
  for (uint32_t s = 0; s < net_->num_sites(); s++) {
    if (s == site_id_) continue;
    PeerInfo info;
    info.site = s;
    info.dead_after_ticks = options_.dead_after_ticks;
    peers_.emplace(s, info);
  }

  obs::MetricsRegistry* registry = store_->metrics();
  const obs::LabelSet site{{"site", std::to_string(site_id_)}};
  applied_total_ = registry->RegisterCounter(
      "tardis_repl_applied_total",
      "Remote commits applied into the local DAG", site);
  sent_total_ = registry->RegisterCounter(
      "tardis_repl_sent_total",
      "Commit records shipped to peers (broadcasts and sync replies)", site);
  deferred_total_ = registry->RegisterCounter(
      "tardis_repl_deferred_total",
      "Remote commits parked while a parent state was missing", site);
  heartbeats_sent_total_ = registry->RegisterCounter(
      "tardis_repl_heartbeats_sent_total",
      "Liveness/anti-entropy heartbeats broadcast to peers", site);
  repairs_sent_total_ = registry->RegisterCounter(
      "tardis_repl_repairs_sent_total",
      "Archived commits replayed to peers by digest anti-entropy", site);
  snapshots_sent_total_ = registry->RegisterCounter(
      "tardis_repl_snapshots_sent_total",
      "Full-state snapshots shipped to peers behind the archive horizon",
      site);
  snapshots_applied_total_ = registry->RegisterCounter(
      "tardis_repl_snapshots_applied_total",
      "Bootstrap snapshots applied from peers", site);
  orphans_evicted_total_ = registry->RegisterCounter(
      "tardis_repl_orphans_evicted_total",
      "Pending-parent commits evicted when the orphan cache hit its cap",
      site);
  ceiling_timeouts_total_ = registry->RegisterCounter(
      "tardis_repl_ceiling_timeouts_total",
      "Pessimistic consent rounds that exhausted their retries", site);
  peer_deaths_total_ = registry->RegisterCounter(
      "tardis_repl_peer_deaths_total",
      "Peers declared dead by the failure detector", site);
  stage_repl_send_us_ = obs::RegisterStageHistogram(registry, "repl_send");
  registry->RegisterCallbackGauge(
      "tardis_repl_pending", "Commits currently waiting for a parent",
      [this] { return static_cast<int64_t>(pending_count()); }, site, this);
  for (const auto& [peer_site, unused] : peers_) {
    (void)unused;
    const obs::LabelSet labels{{"peer", std::to_string(peer_site)},
                               {"site", std::to_string(site_id_)}};
    registry->RegisterCallbackGauge(
        "tardis_repl_peer_state",
        "Failure-detector view of a peer (0=alive 1=suspect 2=dead)",
        [this, peer_site] {
          std::lock_guard<std::mutex> guard(mu_);
          auto it = peers_.find(peer_site);
          return it == peers_.end()
                     ? int64_t{0}
                     : static_cast<int64_t>(it->second.state);
        },
        labels, this);
  }
}

Replicator::~Replicator() {
  Stop();
  store_->metrics()->DropCallbacks(this);
}

void Replicator::Start() {
  if (!stop_.exchange(false)) return;  // already running
  store_->SetCommitCallback(
      [this](const CommitRecord& record) { OnLocalCommit(record); });
  pump_ = std::thread([this] {
    auto last_tick = std::chrono::steady_clock::now();
    const auto tick_every =
        std::chrono::milliseconds(std::max<uint64_t>(1, options_.tick_interval_ms));
    while (!stop_.load(std::memory_order_acquire)) {
      const size_t handled = PumpOnce();
      const auto now = std::chrono::steady_clock::now();
      if (now - last_tick >= tick_every) {
        Tick();
        last_tick = now;
      }
      if (handled == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });
}

void Replicator::StartManual() {
  if (!stop_.exchange(false)) return;  // already running
  store_->SetCommitCallback(
      [this](const CommitRecord& record) { OnLocalCommit(record); });
}

void Replicator::Stop() {
  if (stop_.exchange(true)) return;
  if (pump_.joinable()) pump_.join();
  store_->SetCommitCallback(nullptr);
}

void Replicator::NoteSeen(uint32_t origin, uint64_t seq) {
  std::lock_guard<std::mutex> guard(mu_);
  uint64_t& floor = seen_floor_[origin];
  if (seq <= floor) return;
  std::set<uint64_t>& ahead = seen_ahead_[origin];
  ahead.insert(seq);
  while (!ahead.empty() && *ahead.begin() == floor + 1) {
    ahead.erase(ahead.begin());
    floor++;
  }
}

void Replicator::NoteHeard(uint32_t site) {
  bool returned = false;
  std::vector<GlobalStateId> redeliver;
  std::vector<GlobalStateId> rerun;
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = peers_.find(site);
    if (it == peers_.end()) return;
    PeerInfo& p = it->second;
    p.last_heard_tick = tick_;
    if (p.state == PeerLiveness::kDead) {
      returned = true;
      p.flaps++;
      // Exponential suspicion: a flapping peer must stay quiet longer
      // before it is declared dead again.
      p.dead_after_ticks = std::min(p.dead_after_ticks * 2,
                                    options_.dead_after_ticks_max);
      redeliver.assign(committed_with_exclusions_.begin(),
                       committed_with_exclusions_.end());
      while (!deferred_consent_.empty()) {
        rerun.push_back(deferred_consent_.front());
        deferred_consent_.pop_front();
      }
    }
    p.state = PeerLiveness::kAlive;
  }
  if (!returned) return;
  // The peer missed ceiling commits while dead; hand them over again (it
  // ignores ones it already has — PlaceCeiling is idempotent — and stashes
  // ones whose state has not replicated yet).
  for (const GlobalStateId& guid : redeliver) {
    ReplMessage commit;
    commit.type = ReplMessage::Type::kCeilingCommit;
    commit.ceiling = guid;
    net_->Send(site_id_, site, std::move(commit));
  }
  for (const GlobalStateId& guid : rerun) StartConsentRound(guid);
}

void Replicator::OnLocalCommit(const CommitRecord& record) {
  // repl_send covers archive + broadcast: the full cost a local commit
  // pays on the replication path before returning to the client.
  obs::StageTimer stage(stage_repl_send_us_, "repl_send");
  Archive(record);
  NoteSeen(record.guid.site, record.guid.seq);
  ReplMessage msg;
  msg.type = ReplMessage::Type::kCommit;
  msg.commit = record;
  net_->Broadcast(site_id_, std::move(msg));
  sent_total_->Increment();
}

void Replicator::Archive(const CommitRecord& record) {
  std::lock_guard<std::mutex> guard(mu_);
  auto& log = archive_[record.guid.site];
  log.try_emplace(record.guid.seq, record);
  // Bounded archive: trim the oldest entries past the horizon and
  // remember how far we trimmed — a peer below that floor cannot be
  // repaired by replay and gets a snapshot instead.
  if (options_.archive_horizon > 0) {
    uint64_t& floor = archive_floor_[record.guid.site];
    while (log.size() > options_.archive_horizon) {
      floor = std::max(floor, log.begin()->first);
      log.erase(log.begin());
    }
  }
}

std::vector<CommitRecord> Replicator::BuildRecordsFromStore() {
  std::vector<StatePtr> states;
  {
    std::lock_guard<std::mutex> dag_guard(store_->dag()->Lock());
    states = store_->dag()->AllStatesLocked();
  }
  std::vector<CommitRecord> out;
  out.reserve(states.size());
  for (const StatePtr& s : states) {
    if (s->parents().empty()) continue;  // the shared root has no commit
    CommitRecord r;
    r.guid = s->guid();
    r.is_merge = s->is_merge();
    for (const StatePtr& p : s->parents()) r.parent_guids.push_back(p->guid());
    bool complete = true;
    for (const std::string& key : s->write_set().keys()) {
      auto value = store_->ReadOwnVersion(key, s->id());
      if (!value.ok()) {
        TARDIS_WARN("record rebuild: state (%u,%llu) value for '%s' unreadable: %s",
                    r.guid.site, static_cast<unsigned long long>(r.guid.seq),
                    key.c_str(), value.status().ToString().c_str());
        complete = false;
        break;
      }
      r.writes.emplace_back(key, std::move(*value));
    }
    if (complete) out.push_back(std::move(r));
  }
  return out;
}

void Replicator::ReArchiveFromStore() {
  for (CommitRecord& r : BuildRecordsFromStore()) {
    NoteSeen(r.guid.site, r.guid.seq);
    Archive(r);
  }
}

size_t Replicator::PumpOnce() {
  size_t handled = 0;
  ReplMessage msg;
  while (net_->Receive(site_id_, &msg)) {
    HandleMessage(msg);
    handled++;
  }
  return handled;
}

std::vector<uint64_t> Replicator::FloorDigest() {
  // Caller holds mu_.
  uint32_t max_site = static_cast<uint32_t>(net_->num_sites());
  for (const auto& [site, seq] : seen_floor_) {
    (void)seq;
    max_site = std::max(max_site, site + 1);
  }
  std::vector<uint64_t> digest(max_site, 0);
  for (const auto& [site, seq] : seen_floor_) digest[site] = seq;
  return digest;
}

void Replicator::Tick() {
  bool send_hb = false;
  std::vector<uint64_t> hb_digest;
  std::vector<std::pair<GlobalStateId, bool>> completions;
  std::vector<std::pair<uint32_t, std::pair<GlobalStateId, uint64_t>>> resend;
  bool retry_deferred = false;
  {
    std::lock_guard<std::mutex> guard(mu_);
    const uint64_t now = ++tick_;
    if (options_.heartbeat_every_ticks > 0) {
      if (now % options_.heartbeat_every_ticks == 0) {
        send_hb = true;
        hb_digest = FloorDigest();
      }
      // Failure detector: silence thresholds.
      for (auto& [site, p] : peers_) {
        (void)site;
        if (p.state == PeerLiveness::kDead) continue;
        const uint64_t silent = now - p.last_heard_tick;
        if (silent >= p.dead_after_ticks) {
          p.state = PeerLiveness::kDead;
          peer_deaths_total_->Increment();
        } else if (silent >= options_.suspect_after_ticks) {
          p.state = PeerLiveness::kSuspect;
        }
      }
    }
    // Consent rounds: drop dead peers, enforce deadlines.
    for (auto it = ceilings_.begin(); it != ceilings_.end();) {
      PendingCeiling& c = it->second;
      for (auto a = c.awaiting.begin(); a != c.awaiting.end();) {
        auto p = peers_.find(*a);
        if (p != peers_.end() && p->second.state == PeerLiveness::kDead) {
          c.excluded_dead = true;
          a = c.awaiting.erase(a);
        } else {
          ++a;
        }
      }
      if (c.awaiting.empty()) {
        completions.emplace_back(c.guid, c.excluded_dead);
        it = ceilings_.erase(it);
        continue;
      }
      if (now >= c.deadline_tick) {
        if (c.retries_left == 0) {
          ceiling_timeouts_total_->Increment();
          deferred_consent_.push_back(c.guid);
          it = ceilings_.erase(it);
          continue;
        }
        c.retries_left--;
        c.deadline_tick = now + options_.ceiling_deadline_ticks;
        for (uint32_t peer : c.awaiting) {
          resend.emplace_back(peer, std::make_pair(c.guid, it->first));
        }
      }
      ++it;
    }
    if (!deferred_consent_.empty() &&
        options_.deferred_retry_every_ticks > 0 &&
        now % options_.deferred_retry_every_ticks == 0) {
      retry_deferred = true;
    }
  }

  if (send_hb) {
    ReplMessage hb;
    hb.type = ReplMessage::Type::kHeartbeat;
    hb.seen_seq = std::move(hb_digest);
    net_->Broadcast(site_id_, std::move(hb));
    heartbeats_sent_total_->Increment();
  }
  for (auto& [peer, round] : resend) {
    ReplMessage req;
    req.type = ReplMessage::Type::kCeilingRequest;
    req.ceiling = round.first;
    req.ceiling_epoch = round.second;
    net_->Send(site_id_, peer, std::move(req));
  }
  for (auto& [guid, excluded] : completions) CompleteCeiling(guid, excluded);
  if (retry_deferred) RetryDeferredConsent();
  RetryPending();  // also re-tries stashed ceiling commits
}

void Replicator::HandleMessage(const ReplMessage& msg) {
  NoteHeard(msg.from_site);
  switch (msg.type) {
    case ReplMessage::Type::kCommit:
      TryApply(msg.commit);
      break;

    case ReplMessage::Type::kSyncRequest:
      RepairPeer(msg.from_site, msg.seen_seq, /*explicit_sync=*/true);
      break;

    case ReplMessage::Type::kHeartbeat:
      RepairPeer(msg.from_site, msg.seen_seq, /*explicit_sync=*/false);
      break;

    case ReplMessage::Type::kSnapshot:
      ApplySnapshot(msg);
      break;

    case ReplMessage::Type::kCeilingRequest: {
      // Consent iff we already hold the state the ceiling names.
      if (store_->dag()->ResolveGuid(msg.ceiling) != nullptr) {
        ReplMessage ack;
        ack.type = ReplMessage::Type::kCeilingAck;
        ack.ceiling = msg.ceiling;
        ack.ceiling_epoch = msg.ceiling_epoch;
        net_->Send(site_id_, msg.from_site, std::move(ack));
      }
      // Otherwise stay silent; the requester retries until its deadline,
      // which is the conservative (pessimistic) outcome during partitions.
      break;
    }

    case ReplMessage::Type::kCeilingAck: {
      bool complete = false;
      bool excluded = false;
      GlobalStateId guid;
      {
        std::lock_guard<std::mutex> guard(mu_);
        auto it = ceilings_.find(msg.ceiling_epoch);
        if (it == ceilings_.end()) break;
        it->second.awaiting.erase(msg.from_site);
        if (it->second.awaiting.empty()) {
          complete = true;
          guid = it->second.guid;
          excluded = it->second.excluded_dead;
          ceilings_.erase(it);
        }
      }
      if (complete) CompleteCeiling(guid, excluded);
      break;
    }

    case ReplMessage::Type::kCeilingCommit: {
      StatePtr s = store_->dag()->ResolveGuid(msg.ceiling);
      if (s != nullptr) {
        store_->gc()->PlaceCeiling(s);
      } else {
        // The named state has not replicated here yet (e.g. we are a
        // freshly rejoined site mid-bootstrap). Stash and retry as the
        // DAG catches up.
        std::lock_guard<std::mutex> guard(mu_);
        if (pending_ceiling_commits_.size() >= kMaxStashedCeilings) {
          pending_ceiling_commits_.pop_front();
        }
        pending_ceiling_commits_.push_back(msg.ceiling);
      }
      break;
    }

    case ReplMessage::Type::kHello:
    case ReplMessage::Type::kHelloAck:
      break;  // transport-level; consumed by TcpTransport, ignored here
    case ReplMessage::Type::kPrepare:
    case ReplMessage::Type::kDecide:
      break;  // twopc.log records; never gossiped
  }
}

void Replicator::RepairPeer(uint32_t peer,
                            const std::vector<uint64_t>& their_floors,
                            bool explicit_sync) {
  std::vector<CommitRecord> replay;
  bool want_snapshot = false;
  {
    std::lock_guard<std::mutex> guard(mu_);
    const size_t batch = explicit_sync ? std::numeric_limits<size_t>::max()
                                       : options_.repair_batch;
    for (const auto& [origin, log] : archive_) {
      const uint64_t their_floor =
          origin < their_floors.size() ? their_floors[origin] : 0;
      auto af = archive_floor_.find(origin);
      const uint64_t trimmed = af == archive_floor_.end() ? 0 : af->second;
      if (their_floor < trimmed) {
        // The replay the peer needs was trimmed from the archive; only a
        // snapshot can catch it up.
        want_snapshot = true;
        continue;
      }
      for (auto it = log.upper_bound(their_floor);
           it != log.end() && replay.size() < batch; ++it) {
        replay.push_back(it->second);
      }
    }
    if (want_snapshot) {
      auto it = peers_.find(peer);
      if (it != peers_.end() && !explicit_sync && it->second.snapshot_ever_sent &&
          tick_ - it->second.last_snapshot_tick <
              options_.snapshot_min_interval_ticks) {
        want_snapshot = false;  // rate-limited; next heartbeat retries
        replay.clear();
      } else if (it != peers_.end()) {
        it->second.last_snapshot_tick = tick_;
        it->second.snapshot_ever_sent = true;
      }
    }
  }
  if (want_snapshot) {
    // The snapshot carries everything the archive could have replayed.
    SendSnapshot(peer);
    return;
  }
  for (CommitRecord& r : replay) {
    ReplMessage reply;
    reply.type = ReplMessage::Type::kCommit;
    reply.commit = std::move(r);
    net_->Send(site_id_, peer, std::move(reply));
    sent_total_->Increment();
    repairs_sent_total_->Increment();
  }
}

void Replicator::SendSnapshot(uint32_t peer) {
  ReplMessage snap;
  snap.type = ReplMessage::Type::kSnapshot;
  snap.snapshot = BuildRecordsFromStore();
  {
    std::lock_guard<std::mutex> guard(mu_);
    snap.seen_seq = FloorDigest();
  }
  TARDIS_INFO("site %u: shipping snapshot (%zu commits) to site %u", site_id_,
             snap.snapshot.size(), peer);
  net_->Send(site_id_, peer, std::move(snap));
  snapshots_sent_total_->Increment();
}

void Replicator::ApplySnapshot(const ReplMessage& msg) {
  TARDIS_INFO("site %u: applying snapshot (%zu commits) from site %u", site_id_,
             msg.snapshot.size(), msg.from_site);
  for (const CommitRecord& r : msg.snapshot) TryApply(r);
  // Adopt the sender's floors. Anything at or below a floor that the
  // snapshot did not carry was GC-promoted into a surviving state the
  // snapshot does carry, so the floor jump cannot mask a real hole.
  uint64_t own_floor = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (uint32_t origin = 0; origin < msg.seen_seq.size(); origin++) {
      uint64_t& floor = seen_floor_[origin];
      floor = std::max(floor, msg.seen_seq[origin]);
      std::set<uint64_t>& ahead = seen_ahead_[origin];
      while (!ahead.empty() && *ahead.begin() <= floor) {
        ahead.erase(ahead.begin());
      }
    }
    auto it = seen_floor_.find(site_id_);
    if (it != seen_floor_.end()) own_floor = it->second;
  }
  // The snapshot may contain this site's own pre-crash commits; move the
  // local sequence allocator past them so new commits cannot reuse a guid.
  if (own_floor > 0) store_->dag()->AdvanceSeqFloor(own_floor);
  snapshots_applied_total_->Increment();
  RetryPending();
}

void Replicator::TryApply(const CommitRecord& record) {
  Status s = store_->ApplyRemote(record);
  if (s.ok()) {
    Archive(record);
    NoteSeen(record.guid.site, record.guid.seq);
    applied_total_->Increment();
    RetryPending();
    return;
  }
  if (s.IsUnavailable()) {
    deferred_total_->Increment();
    std::lock_guard<std::mutex> guard(mu_);
    if (options_.max_pending > 0 && pending_.size() >= options_.max_pending) {
      // Cap the orphan cache: evict the oldest entry. Anti-entropy will
      // re-fetch it once its parent finally lands.
      pending_.pop_front();
      orphans_evicted_total_->Increment();
    }
    pending_.push_back(record);
    return;
  }
  TARDIS_WARN("remote apply failed: %s", s.ToString().c_str());
}

void Replicator::RetryPending() {
  // Every successful apply may unblock cached transactions; sweep until a
  // full pass makes no progress.
  while (true) {
    std::deque<CommitRecord> work;
    {
      std::lock_guard<std::mutex> guard(mu_);
      work.swap(pending_);
    }
    if (work.empty()) break;
    size_t applied_now = 0;
    std::deque<CommitRecord> still_pending;
    for (CommitRecord& record : work) {
      Status s = store_->ApplyRemote(record);
      if (s.ok()) {
        Archive(record);
        NoteSeen(record.guid.site, record.guid.seq);
        applied_total_->Increment();
        applied_now++;
      } else if (s.IsUnavailable()) {
        still_pending.push_back(std::move(record));
      } else {
        TARDIS_WARN("remote apply failed: %s", s.ToString().c_str());
      }
    }
    {
      std::lock_guard<std::mutex> guard(mu_);
      for (CommitRecord& r : still_pending) pending_.push_back(std::move(r));
    }
    if (applied_now == 0) break;
  }
  // Ceiling commits stashed while their state was missing may now apply.
  std::deque<GlobalStateId> stashed;
  {
    std::lock_guard<std::mutex> guard(mu_);
    stashed.swap(pending_ceiling_commits_);
  }
  if (stashed.empty()) return;
  std::deque<GlobalStateId> still_unresolved;
  for (const GlobalStateId& guid : stashed) {
    StatePtr s = store_->dag()->ResolveGuid(guid);
    if (s != nullptr) {
      store_->gc()->PlaceCeiling(s);
    } else {
      still_unresolved.push_back(guid);
    }
  }
  if (!still_unresolved.empty()) {
    std::lock_guard<std::mutex> guard(mu_);
    for (const GlobalStateId& guid : still_unresolved) {
      if (pending_ceiling_commits_.size() >= kMaxStashedCeilings) break;
      pending_ceiling_commits_.push_back(guid);
    }
  }
}

void Replicator::StartConsentRound(const GlobalStateId& guid) {
  bool complete_now = false;
  bool excluded = false;
  uint64_t epoch = 0;
  std::vector<uint32_t> targets;
  {
    std::lock_guard<std::mutex> guard(mu_);
    epoch = ++ceiling_epoch_;
    PendingCeiling round;
    round.guid = guid;
    round.deadline_tick = tick_ + options_.ceiling_deadline_ticks;
    round.retries_left = options_.ceiling_max_retries;
    for (const auto& [site, p] : peers_) {
      if (p.state == PeerLiveness::kDead) {
        round.excluded_dead = true;
      } else {
        round.awaiting.insert(site);
      }
    }
    excluded = round.excluded_dead;
    if (round.awaiting.empty()) {
      complete_now = true;
    } else {
      targets.assign(round.awaiting.begin(), round.awaiting.end());
      ceilings_[epoch] = std::move(round);
    }
  }
  if (complete_now) {
    CompleteCeiling(guid, excluded);
    return;
  }
  for (uint32_t peer : targets) {
    ReplMessage req;
    req.type = ReplMessage::Type::kCeilingRequest;
    req.ceiling = guid;
    req.ceiling_epoch = epoch;
    net_->Send(site_id_, peer, std::move(req));
  }
}

void Replicator::CompleteCeiling(const GlobalStateId& guid,
                                 bool excluded_dead) {
  StatePtr s = store_->dag()->ResolveGuid(guid);
  if (s != nullptr) store_->gc()->PlaceCeiling(s);
  ReplMessage commit;
  commit.type = ReplMessage::Type::kCeilingCommit;
  commit.ceiling = guid;
  net_->Broadcast(site_id_, std::move(commit));
  if (excluded_dead) {
    // A dead peer never consented; re-deliver the commit when it returns.
    std::lock_guard<std::mutex> guard(mu_);
    if (committed_with_exclusions_.size() >= kMaxStashedCeilings) {
      committed_with_exclusions_.pop_front();
    }
    committed_with_exclusions_.push_back(guid);
  }
}

void Replicator::RetryDeferredConsent() {
  std::vector<GlobalStateId> rerun;
  {
    std::lock_guard<std::mutex> guard(mu_);
    while (!deferred_consent_.empty()) {
      rerun.push_back(deferred_consent_.front());
      deferred_consent_.pop_front();
    }
  }
  for (const GlobalStateId& guid : rerun) StartConsentRound(guid);
}

void Replicator::PlaceCeiling(ClientSession* session) {
  if (session == nullptr || session->last_commit() == nullptr) return;
  if (options_.gc_mode == GcCoordination::kOptimistic) {
    store_->gc()->PlaceCeiling(session->last_commit());
    return;
  }
  StartConsentRound(session->last_commit()->guid());
}

void Replicator::RequestSync() {
  ReplMessage req;
  req.type = ReplMessage::Type::kSyncRequest;
  {
    std::lock_guard<std::mutex> guard(mu_);
    req.seen_seq = FloorDigest();
  }
  net_->Broadcast(site_id_, std::move(req));
}

std::vector<Replicator::PeerHealth> Replicator::PeerStates() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<PeerHealth> out;
  out.reserve(peers_.size());
  for (const auto& [site, p] : peers_) {
    PeerHealth h;
    h.site = site;
    h.state = p.state;
    h.last_heard_tick = p.last_heard_tick;
    h.dead_after_ticks = p.dead_after_ticks;
    h.flaps = p.flaps;
    out.push_back(h);
  }
  return out;
}

std::map<uint32_t, uint64_t> Replicator::AppliedFloors() const {
  std::lock_guard<std::mutex> guard(mu_);
  return seen_floor_;
}

uint64_t Replicator::tick_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return tick_;
}

size_t Replicator::deferred_consent_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return deferred_consent_.size();
}

size_t Replicator::pending_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return pending_.size();
}

}  // namespace tardis
