// TardisClient: the one retry/backoff/failover implementation for the
// tardisd line protocol (DESIGN.md §13).
//
// Every caller of a TARDiS cluster edge — shell, e2e driver, benches —
// used to hand-roll its own retry loop. This client centralizes the
// contract:
//
//  * Per-request deadlines. Each logical operation gets one end-to-end
//    budget; connects, sends, reads, and backoff sleeps all draw from it.
//  * Capped exponential backoff with decorrelated jitter (tardis::Backoff)
//    between attempts, so client herds do not re-synchronize after a
//    daemon restart.
//  * Safe-retry classification. The daemon's retryable errors
//    ("ERR BUSY", "ERR DEADLINE", "ERR SHUTTING_DOWN", "ERR BEHIND",
//    "ERR HEADER") all mean the request was NOT executed, so anything
//    may be resent after one. A connection cut mid-request is different:
//    the outcome is unknown, so reads retry anywhere, writes retry only
//    under a session (the `*S` header makes them idempotent — the daemon
//    answers retries from its dedup table), and everything else fails.
//  * Automatic failover across a list of endpoints (routers or sites),
//    rotating on connect failures, cut connections, draining daemons,
//    and ERR BEHIND replicas.
//  * Session guarantees. The client carries read-your-writes/monotonic-
//    reads floors learned from `*F` reply tokens on every request; a
//    failover target that has not caught up refuses with ERR BEHIND and
//    the client moves on. With stale_reads_ms > 0, reads omit floors
//    learned within the last stale_reads_ms and set the stale-ok flag —
//    an explicit staleness bound instead of an error on behind replicas.
//
// Not thread-safe: one TardisClient per client thread (it owns one
// connection and one session sequence counter).

#ifndef TARDIS_CLIENT_TARDIS_CLIENT_H_
#define TARDIS_CLIENT_TARDIS_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "client/line_connection.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "util/backoff.h"
#include "util/status.h"

namespace tardis {
namespace client {

struct TardisClientOptions {
  /// Endpoints ("host:port") to try, in order: tardisd client ports or
  /// router ports. Failover rotates through them.
  std::vector<std::string> endpoints;
  /// End-to-end budget for one logical operation, including every retry,
  /// reconnect, and backoff sleep.
  uint64_t request_deadline_ms = 5000;
  uint64_t connect_timeout_ms = 1000;
  uint64_t backoff_initial_ms = 20;
  uint64_t backoff_max_ms = 2000;
  /// Seeds the backoff jitter and the generated session id; 0 derives a
  /// seed from the OS. Fix it for deterministic tests.
  uint64_t seed = 0;
  /// Exactly-once session identity; 0 generates a random one. All writes
  /// from this client dedup under it.
  uint64_t session_id = 0;
  /// 0 = strict session reads (ERR BEHIND replicas are failed over).
  /// > 0 = degraded reads: floors learned within the last stale_reads_ms
  /// are omitted and the stale-ok flag set, so a replica behind by at
  /// most that bound may still answer.
  uint64_t stale_reads_ms = 0;
  /// Optional registry for tardis_client_* metrics (not owned; may be
  /// null).
  obs::MetricsRegistry* registry = nullptr;
};

class TardisClient {
 public:
  explicit TardisClient(TardisClientOptions options);
  ~TardisClient();

  TardisClient(const TardisClient&) = delete;
  TardisClient& operator=(const TardisClient&) = delete;

  /// Exactly-once write. On success *state (if non-null) receives the
  /// committing state's "site:seq" identity — identical across retries of
  /// the same operation.
  Status Put(const std::string& key, const std::string& value,
             std::string* state = nullptr);

  /// Session read; Status::NotFound when the key has no value on the
  /// serving branch.
  Status Get(const std::string& key, std::string* value);

  /// Atomic multi-put through a router (fast path or 2PC). Exactly-once:
  /// a retry re-runs the same derived transaction id, so participants
  /// converge on a single outcome. *reply receives the raw reply
  /// ("OK", "OK STATE ...", or "OK TXN <id> ...").
  Status MultiPut(
      const std::vector<std::pair<std::string, std::string>>& writes,
      std::string* reply = nullptr);

  /// Generic single-line command with verb-based retry classification.
  Status Call(const std::string& line, std::string* reply);

  /// Generic END-terminated multi-line command (health/metrics/...).
  /// *body receives the lines without the terminator.
  Status CallMulti(const std::string& line, std::string* body);

  uint64_t session_id() const { return session_id_; }
  /// Floors learned from `*F` reply tokens (origin site -> applied seq).
  const std::map<uint32_t, uint64_t>& floors() const { return floors_; }

  // Lifetime operation counts (also exported as tardis_client_* when a
  // registry was supplied).
  uint64_t requests() const { return requests_n_; }
  uint64_t retries() const { return retries_n_; }
  uint64_t failovers() const { return failovers_n_; }
  uint64_t stale_reads() const { return stale_reads_n_; }

 private:
  enum class Verb {
    kReadOnly,      ///< retries anywhere, even after a cut connection
    kSessionWrite,  ///< retries under the session's (sid, seq) dedup
    kUnsafe,        ///< retries only on clean retryable ERR replies
  };
  static Verb Classify(const std::string& line);

  /// The shared engine: runs `line` under the deadline/backoff/failover
  /// policy. `seq` > 0 marks an exactly-once write (dedup header).
  Status Execute(const std::string& line, Verb verb, bool multi,
                 uint64_t seq, std::string* out);

  /// Raises floors_ from a `*F` token's map, stamping when each floor
  /// was first raised (drives the stale-reads window).
  void MergeFloors(const std::map<uint32_t, uint64_t>& learned,
                   uint64_t now_ms);
  std::string BuildHeader(Verb verb, uint64_t seq, uint64_t attempt,
                          uint64_t now_ms, bool* degraded);
  void Rotate();

  const TardisClientOptions options_;
  uint64_t session_id_ = 0;
  uint64_t next_seq_ = 0;  ///< last assigned write sequence
  Backoff backoff_;

  LineConnection conn_;
  size_t endpoint_ = 0;  ///< index into options_.endpoints

  std::map<uint32_t, uint64_t> floors_;
  /// When each floor was last raised (NowMillis); drives stale_reads_ms.
  std::map<uint32_t, uint64_t> floor_learned_ms_;

  uint64_t requests_n_ = 0;
  uint64_t retries_n_ = 0;
  uint64_t failovers_n_ = 0;
  uint64_t stale_reads_n_ = 0;
  obs::Counter* requests_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* failovers_ = nullptr;
  obs::Counter* stale_reads_ = nullptr;
};

}  // namespace client
}  // namespace tardis

#endif  // TARDIS_CLIENT_TARDIS_CLIENT_H_
