// Wire messages exchanged by Replicators. The paper's prototype used
// protobuf-over-Netty; here sites live in one process and exchange
// structured messages through a simulated network with injected latency,
// which preserves the asynchronous, gossip-style semantics (§6.4).

#ifndef TARDIS_REPLICATION_MESSAGE_H_
#define TARDIS_REPLICATION_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/tardis_store.h"

namespace tardis {

struct ReplMessage {
  enum class Type {
    kCommit,          ///< a committed transaction (CommitRecord)
    kSyncRequest,     ///< recovery: vector of last-seen seq per site
    kCeilingRequest,  ///< pessimistic GC: ask consent for a ceiling
    kCeilingAck,      ///< consent granted (the state is present here)
    kCeilingCommit,   ///< all consented: place the ceiling
    kHeartbeat,       ///< liveness beacon + anti-entropy digest (seen_seq)
    kSnapshot,        ///< bootstrap: topologically ordered commit replay
    kHello,           ///< transport handshake: first frame on a dialed conn
    kHelloAck,        ///< transport handshake: acceptor's reply
    // 2PC records of a participant's twopc.log (see src/cluster/twopc.h).
    // Their values are on disk, so they never change; the gaps are the
    // retired coordination frames.
    kPrepare = 11,    ///< 2PC phase 1: a partition's staged write set
    kDecide = 13,     ///< 2PC phase 2: the decision
  };

  ReplMessage() = default;
  // Movable (and noexcept-movable, so containers relocate cheaply):
  // messages are moved through the transport fabric; the commit write set
  // is only deep-copied where a fan-out genuinely needs its own copy.
  ReplMessage(ReplMessage&&) noexcept = default;
  ReplMessage& operator=(ReplMessage&&) noexcept = default;
  ReplMessage(const ReplMessage&) = default;
  ReplMessage& operator=(const ReplMessage&) = default;

  Type type = Type::kCommit;
  uint32_t from_site = 0;

  CommitRecord commit;  // kCommit

  /// kSyncRequest / kHeartbeat / kSnapshot: last *contiguous* sequence
  /// number applied per origin site, indexed by site id. Heartbeats carry
  /// the sender's digest so every beacon doubles as an anti-entropy probe;
  /// a snapshot carries the sender's floors so the receiver can adopt them
  /// after applying the contained records.
  std::vector<uint64_t> seen_seq;

  /// Ceiling protocol: the state the ceiling is placed on.
  GlobalStateId ceiling;
  uint64_t ceiling_epoch = 0;

  /// kSnapshot: every commit the sender can replay, in an order where
  /// parents precede children (local id order satisfies this). Shipped as
  /// one message so floor adoption is all-or-nothing.
  std::vector<CommitRecord> snapshot;

  // ---- 2PC records (kPrepare/kDecide) -------------------------------------

  /// Distributed transaction id, unique per router-coordinated commit.
  uint64_t txn_id = 0;

  /// kDecide: the decision. Values match cluster::TwoPhaseDecision:
  /// 0 = unknown, 1 = commit, 2 = abort.
  uint8_t decision = 0;

  /// kPrepare: coordination endpoints ("host:port") of every participant
  /// daemon of this transaction, self included — persisted with the
  /// prepare record so an in-doubt participant can run cooperative
  /// termination after a coordinator crash.
  std::vector<std::string> endpoints;

  /// kPrepare/kDecide: distributed trace context (DESIGN.md §7) of the
  /// request that wrote the record; trace_id 0 = untraced. trace_span is
  /// the sender's span.
  uint64_t trace_id = 0;
  uint64_t trace_span = 0;
  bool trace_sampled = false;

  /// kPrepare: exactly-once client session tag (DESIGN.md §13).
  /// session_id 0 = unsessioned. Persisted with the prepare record so a
  /// crash-recovered decision still commits tagged.
  uint64_t session_id = 0;
  uint64_t session_seq = 0;
};

}  // namespace tardis

#endif  // TARDIS_REPLICATION_MESSAGE_H_
