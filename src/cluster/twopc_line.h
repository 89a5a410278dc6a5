// The cross-partition commit protocol's line format (DESIGN.md §10.3):
// the three verbs the router and the participants' resolvers send to a
// partition daemon, and the one reply shape they get back. Both sides
// format and parse through this module, so the format lives in one place.
//
//   prepare <txn> <session_id> <session_seq> <endpoint>[,<endpoint>...]
//           <key> <value> [<key> <value>]...
//   decide <txn> commit|abort
//   txnstatus <txn>
//     -> 2PC <txn> commit|abort|unknown [FORKED]
//
// Numbers are unsigned decimal. A prepare carries every participant's
// coordination endpoint (persisted for cooperative termination) and the
// client's exactly-once session tag as plain arguments (0 0 when
// unsessioned) — not as a `*S` header, whose floors belong to another
// partition's sites. Keys and values are single tokens, as in the
// router's `mput`. The trace context travels as the usual `*T` header.
// Parsing reads untrusted network bytes: every malformed line (missing
// fields, non-numeric ids, an odd key/value count, a line over the
// server's 1 MiB guard) is an error, never a crash.

#ifndef TARDIS_CLUSTER_TWOPC_LINE_H_
#define TARDIS_CLUSTER_TWOPC_LINE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "replication/message.h"
#include "util/status.h"

namespace tardis {
namespace cluster {

enum class TwoPhaseDecision : uint8_t {
  kUnknown = 0,  ///< prepared, outcome not yet known
  kCommit = 1,
  kAbort = 2,
};

/// "unknown", "commit" or "abort" — the words the line format uses.
const char* TwoPhaseDecisionName(TwoPhaseDecision d);

/// What a participant answers to any of the three verbs: the vote
/// (prepare), the applied decision (decide) or its view (txnstatus).
struct TwoPhaseReply {
  uint64_t txn_id = 0;
  TwoPhaseDecision decision = TwoPhaseDecision::kUnknown;
  bool forked = false;  ///< decide-commit forked the participant's DAG
};

struct TwoPhaseRequest {
  enum class Verb { kPrepare, kDecide, kTxnStatus };
  Verb verb = Verb::kTxnStatus;
  uint64_t txn_id = 0;
  /// kPrepare: the record the participant stages and logs (type,
  /// txn_id, endpoints, writes, session tag).
  ReplMessage prepare;
  TwoPhaseDecision decision = TwoPhaseDecision::kUnknown;  ///< kDecide
};

/// True for the first token of a 2PC request line.
bool IsTwoPhaseVerb(std::string_view verb);

/// `prepare` from a kPrepare record's txn_id, session tag, endpoints
/// and writes.
std::string FormatPrepare(const ReplMessage& prepare);
std::string FormatDecide(uint64_t txn_id, TwoPhaseDecision decision);
std::string FormatTxnStatus(uint64_t txn_id);
Status ParseTwoPhaseRequest(std::string_view line, TwoPhaseRequest* out);

std::string FormatTwoPhaseReply(const TwoPhaseReply& reply);
/// InvalidArgument for anything but a well-formed `2PC` line (an
/// `ERR ...` reply included).
Status ParseTwoPhaseReply(std::string_view line, TwoPhaseReply* out);

}  // namespace cluster
}  // namespace tardis

#endif  // TARDIS_CLUSTER_TWOPC_LINE_H_
