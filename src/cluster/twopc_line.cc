#include "cluster/twopc_line.h"

#include <memory>
#include <vector>

#include "util/socket.h"

namespace tardis {
namespace cluster {

namespace {

/// The server refuses longer lines before any handler sees them.
constexpr size_t kMaxLine = 1u << 20;

std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  while (pos < line.size()) {
    const size_t start = line.find_first_not_of(' ', pos);
    if (start == std::string_view::npos) break;
    size_t end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    out.push_back(line.substr(start, end - start));
    pos = end;
  }
  return out;
}

bool ParseId(std::string_view token, uint64_t* id) {
  return ParseUint(token, 0, UINT64_MAX, id);
}

bool ParseDecision(std::string_view token, TwoPhaseDecision* d) {
  for (TwoPhaseDecision c : {TwoPhaseDecision::kUnknown,
                             TwoPhaseDecision::kCommit,
                             TwoPhaseDecision::kAbort}) {
    if (token == TwoPhaseDecisionName(c)) {
      *d = c;
      return true;
    }
  }
  return false;
}

Status Malformed(std::string_view what) {
  return Status::InvalidArgument("malformed 2PC " + std::string(what));
}

}  // namespace

const char* TwoPhaseDecisionName(TwoPhaseDecision d) {
  switch (d) {
    case TwoPhaseDecision::kUnknown:
      return "unknown";
    case TwoPhaseDecision::kCommit:
      return "commit";
    case TwoPhaseDecision::kAbort:
      return "abort";
  }
  return "?";
}

bool IsTwoPhaseVerb(std::string_view verb) {
  return verb == "prepare" || verb == "decide" || verb == "txnstatus";
}

std::string FormatPrepare(const ReplMessage& prepare) {
  std::string line = "prepare " + std::to_string(prepare.txn_id) + " " +
                     std::to_string(prepare.session_id) + " " +
                     std::to_string(prepare.session_seq) + " ";
  for (size_t i = 0; i < prepare.endpoints.size(); i++) {
    if (i > 0) line += ",";
    line += prepare.endpoints[i];
  }
  for (const auto& [key, value] : prepare.commit.writes) {
    line += " " + key + " " + (value ? *value : std::string());
  }
  return line;
}

std::string FormatDecide(uint64_t txn_id, TwoPhaseDecision decision) {
  return "decide " + std::to_string(txn_id) + " " +
         TwoPhaseDecisionName(decision);
}

std::string FormatTxnStatus(uint64_t txn_id) {
  return "txnstatus " + std::to_string(txn_id);
}

Status ParseTwoPhaseRequest(std::string_view line, TwoPhaseRequest* out) {
  if (line.size() > kMaxLine) return Malformed("request: line too long");
  const std::vector<std::string_view> t = Tokens(line);
  if (t.empty() || !IsTwoPhaseVerb(t[0])) return Malformed("request verb");
  TwoPhaseRequest req;
  if (t.size() < 2 || !ParseId(t[1], &req.txn_id)) {
    return Malformed(std::string(t[0]) + ": txn id");
  }
  if (t[0] == "txnstatus") {
    if (t.size() != 2) return Malformed("txnstatus: trailing tokens");
    req.verb = TwoPhaseRequest::Verb::kTxnStatus;
  } else if (t[0] == "decide") {
    if (t.size() != 3 || !ParseDecision(t[2], &req.decision) ||
        req.decision == TwoPhaseDecision::kUnknown) {
      return Malformed("decide: want commit|abort");
    }
    req.verb = TwoPhaseRequest::Verb::kDecide;
  } else {
    // prepare <txn> <sid> <seq> <endpoints> <k> <v> [<k> <v>]...
    ReplMessage& p = req.prepare;
    if (t.size() < 7 || (t.size() - 5) % 2 != 0) {
      return Malformed("prepare: want session, endpoints and key/value pairs");
    }
    if (!ParseId(t[2], &p.session_id) || !ParseId(t[3], &p.session_seq)) {
      return Malformed("prepare: session tag");
    }
    std::string_view eps = t[4];
    while (true) {
      const size_t comma = eps.find(',');
      const std::string_view ep = eps.substr(0, comma);
      if (ep.empty()) return Malformed("prepare: empty endpoint");
      p.endpoints.emplace_back(ep);
      if (comma == std::string_view::npos) break;
      eps.remove_prefix(comma + 1);
    }
    for (size_t i = 5; i < t.size(); i += 2) {
      p.commit.writes.emplace_back(
          std::string(t[i]), std::make_shared<const std::string>(t[i + 1]));
    }
    p.type = ReplMessage::Type::kPrepare;
    p.txn_id = req.txn_id;
    req.verb = TwoPhaseRequest::Verb::kPrepare;
  }
  *out = std::move(req);
  return Status::OK();
}

std::string FormatTwoPhaseReply(const TwoPhaseReply& reply) {
  std::string line = "2PC " + std::to_string(reply.txn_id) + " " +
                     TwoPhaseDecisionName(reply.decision);
  if (reply.forked) line += " FORKED";
  return line;
}

Status ParseTwoPhaseReply(std::string_view line, TwoPhaseReply* out) {
  if (line.size() > kMaxLine) return Malformed("reply: line too long");
  const std::vector<std::string_view> t = Tokens(line);
  TwoPhaseReply r;
  if (t.size() < 3 || t.size() > 4 || t[0] != "2PC" ||
      !ParseId(t[1], &r.txn_id) || !ParseDecision(t[2], &r.decision)) {
    return Malformed("reply: " + std::string(line.substr(0, 200)));
  }
  if (t.size() == 4) {
    if (t[3] != "FORKED") return Malformed("reply: trailing token");
    r.forked = true;
  }
  *out = r;
  return Status::OK();
}

}  // namespace cluster
}  // namespace tardis
