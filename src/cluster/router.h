// Router: the stateless front-end of a partitioned TARDiS cluster
// (DESIGN.md §10). Clients speak the same line protocol as tardisd; the
// router hashes keys through the PartitionMap and forwards each command
// to the owning partition's daemon over its coordination port, which
// speaks that same line protocol.
//
// Two paths:
//
//  * Fast path — every key of the command lives in one partition. The
//    command line is forwarded as is and executed there as an ordinary
//    local transaction: zero extra coordination, no 2PC verbs on the
//    wire (asserted by the grid e2e via the router metrics).
//  * 2PC path — a multi-key write spanning partitions. The router runs
//    two-phase commit (the prepare/decide verbs of twopc_line.h) against
//    every participant; the participants stage and fork TARDiS-style
//    (see twopc.h), so the only abort source is a prepare that fails,
//    is refused (any ERR reply) or cannot reach its participant.
//
// Statelessness: the router persists nothing. Transaction ids carry a
// per-instance random high half over a counter low half so they stay
// unique across router restarts and concurrent router instances, and a
// router crash mid-2PC is recovered by the participants' cooperative
// termination, not by the router. Killing the router at any point loses
// no acknowledged write.
//
// Not thread-safe: the tardis-router binary runs every command on the
// single worker of its server::LineServer, which serializes them
// (coordination traffic is not the data hot path — that is the
// per-partition gossip mesh). The server also gives the router the same
// overload, deadline and drain contract as tardisd.

#ifndef TARDIS_CLUSTER_ROUTER_H_
#define TARDIS_CLUSTER_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/line_connection.h"
#include "cluster/partition_map.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace tardis {
namespace server {
class LineServer;
}  // namespace server
namespace cluster {

struct RouterOptions {
  /// Coordination endpoint ("host:port") of each partition's daemon,
  /// indexed by partition id; size must equal map.partition_count().
  std::vector<std::string> coord_endpoints;
  /// Per-frame call deadline.
  uint64_t call_timeout_ms = 2000;
  /// End-to-end budget for one 2PC commit. Keep well below the
  /// participants' resolve_grace_ms: a participant must never presume
  /// abort while a live router is still inside its decision window.
  uint64_t txn_deadline_ms = 4000;
  /// Head-based trace sampling: every Nth client request without its own
  /// trace header starts a new sampled trace (0 = off). Only effective
  /// while the tracer is enabled; also settable at runtime via
  /// `trace sample <n>`.
  uint64_t trace_sample = 0;
};

class Router {
 public:
  /// Registers the router metrics on `registry` (not owned, must outlive
  /// the router).
  Router(PartitionMap map, RouterOptions options,
         obs::MetricsRegistry* registry);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Executes one line-protocol command and returns the reply (no
  /// trailing newline; multi-line replies are END-terminated like
  /// tardisd's). Sets *close_conn for quit.
  ///
  /// Commands:
  ///   ping                      -> PONG (answered locally)
  ///   get <key> / put <key> <v> -> forwarded to the owning partition
  ///   mput <k> <v> [<k> <v>]... -> atomic multi-put; fast path when all
  ///                                keys share a partition, 2PC otherwise
  ///                                -> OK TXN <id> [FORKED]
  ///   partition <key>           -> PARTITION <id> (routing introspection)
  ///   merge [counter|lww]       -> forwarded to every partition
  ///   health                    -> aggregated per-partition health, END
  ///   metrics [prom|table]      -> the router's own registry, END
  ///   metrics cluster           -> every partition's exposition + the
  ///                                router's, merged (counters summed,
  ///                                histogram buckets merged), END
  ///   trace start|stop          -> enable/disable tracing here and on
  ///                                every partition, END
  ///   trace sample <n>          -> sample every Nth request (0 = off)
  ///   trace json                -> the router's own ring dump, END
  ///   trace collect             -> fan out `trace json` and stitch all
  ///                                rings into one Chrome trace, END
  ///   2pc_delay <ms>            -> test hook: sleep between prepare and
  ///                                decide of subsequent 2PC commits
  ///   quit                      -> BYE
  ///
  /// The caller binds the request's trace context (server::LineServer
  /// strips and binds a "*T<trace>/<span>/<flags>" header); the router
  /// logs its spans under that trace and propagates the context as a
  /// `*T` header on every line it sends a partition. A request that
  /// arrives without one is sampled 1-in-N into a fresh trace
  /// (trace_sample).
  ///
  /// After the trace header, a request may carry an exactly-once session
  /// header ("*S...", DESIGN.md §13). Forwarded get/put lines keep the
  /// header, as does a single-partition mput (the owning daemon dedups
  /// and checks floors); a cross-partition mput carries the session tag
  /// as prepare arguments and derives its 2PC txn id from the request
  /// id, so a retry resolves the in-doubt transaction instead of
  /// starting a second one. A corrupt or oversized header is rejected with a
  /// retryable "ERR HEADER ..." (never silently stripped).
  std::string Handle(const std::string& line, bool* close_conn);

  /// Registers `server`'s serving metrics on the router's registry under
  /// router names (tardis_router_queue_depth, tardis_router_shed_total,
  /// tardis_router_deadline_expired_total, tardis_router_queue_wait_us),
  /// apart from the daemons' tardisd_* series that `metrics cluster` sums.
  void BindServingMetrics(server::LineServer* server);

  const PartitionMap& map() const { return map_; }

 private:
  struct WriteOp {
    std::string key;
    std::string value;
  };

  /// Sends `line` to partition `p` under the bound trace context and
  /// reads its reply (to END with `multi`), reconnecting once on a dead
  /// cached connection. When deadline_ms is non-zero every wire
  /// operation's timeout is clipped to the remaining budget and the call
  /// fails fast once it is spent (the 2PC prepare phase must end
  /// strictly before the participants' presumed-abort grace period).
  Status CallPartition(uint32_t p, const std::string& line, bool multi,
                       std::string* reply, uint64_t deadline_ms = 0);

  /// CallPartition's reply, or "ERR partition <p> ..." when it failed.
  std::string ForwardLine(uint32_t partition, const std::string& line,
                          bool multi = false);
  std::string HandleMultiPut(const std::vector<WriteOp>& writes,
                             const SessionHeader& session);
  /// The 2PC path; `by_partition[i]` is partition_ids[i]'s write subset.
  std::string CommitAcrossPartitions(
      const std::vector<uint32_t>& partition_ids,
      const std::vector<std::vector<WriteOp>>& by_partition,
      const SessionHeader& session);
  std::string AggregateHealth();
  /// The dispatch body behind Handle, running inside the request's trace
  /// context/span with the parsed (possibly empty) session header.
  std::string Dispatch(const std::string& line, bool* close_conn,
                       const SessionHeader& session);
  std::string HandleTraceCommand(const std::string& sub);
  std::string CollectClusterTraces();
  std::string ClusterMetrics();

  const PartitionMap map_;
  const RouterOptions options_;
  obs::MetricsRegistry* const registry_;
  std::vector<std::unique_ptr<client::LineConnection>> conns_;  // by partition

  uint64_t next_txn_id_;  ///< random high half, counter low half (TxnIdSeed)
  uint64_t decide_delay_ms_ = 0;  ///< 2pc_delay test hook
  uint64_t sample_every_ = 0;     ///< trace 1-in-N sampling (0 = off)
  uint64_t sample_counter_ = 0;

  obs::Counter* requests_fast_ = nullptr;
  obs::Counter* requests_2pc_ = nullptr;
  obs::Counter* prepares_ = nullptr;
  obs::Counter* forked_commits_ = nullptr;
  obs::Counter* header_rejected_ = nullptr;
  obs::HistogramMetric* prepare_rtt_us_ = nullptr;
};

}  // namespace cluster
}  // namespace tardis

#endif  // TARDIS_CLUSTER_ROUTER_H_
