#include "client/tardis_client.h"

#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>

#include "util/clock.h"
#include "util/random.h"

namespace tardis {
namespace client {

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, strlen(prefix), prefix) == 0;
}

/// Retryable daemon errors all mean "not executed": the request was shed
/// before reaching the store, so any verb may be resent.
bool IsCleanRetryable(const std::string& reply) {
  return StartsWith(reply, "ERR BUSY") || StartsWith(reply, "ERR DEADLINE") ||
         StartsWith(reply, "ERR SHUTTING_DOWN") ||
         StartsWith(reply, "ERR BEHIND") || StartsWith(reply, "ERR HEADER");
}

/// BUSY/DEADLINE are transient load on an otherwise healthy endpoint;
/// the others mean this endpoint will not serve us soon, so fail over.
bool WantsRotate(const std::string& reply) {
  return StartsWith(reply, "ERR SHUTTING_DOWN") ||
         StartsWith(reply, "ERR BEHIND") || StartsWith(reply, "ERR HEADER");
}

}  // namespace

TardisClient::TardisClient(TardisClientOptions options)
    : options_(std::move(options)),
      backoff_(options_.backoff_initial_ms, options_.backoff_max_ms) {
  uint64_t seed = options_.seed;
  if (seed == 0) {
    // No determinism requested: decorrelate from other clients on this
    // host (the whole point of the jitter).
    seed = NowNanos() ^ (static_cast<uint64_t>(getpid()) << 32) ^
           reinterpret_cast<uintptr_t>(this);
  }
  backoff_.EnableJitter(seed);
  session_id_ = options_.session_id;
  if (session_id_ == 0) {
    Random rng(seed);
    while (session_id_ == 0) session_id_ = rng.Next();
  }
  if (options_.registry != nullptr) {
    requests_ = options_.registry->RegisterCounter(
        "tardis_client_requests", "logical operations issued by TardisClient");
    retries_ = options_.registry->RegisterCounter(
        "tardis_client_retries", "request attempts beyond the first");
    failovers_ = options_.registry->RegisterCounter(
        "tardis_client_failovers", "endpoint rotations (connect failures, "
        "cut connections, draining or behind replicas)");
    stale_reads_ = options_.registry->RegisterCounter(
        "tardis_client_stale_reads",
        "reads sent with floors relaxed under --stale-reads-ms");
  }
}

TardisClient::~TardisClient() = default;

void TardisClient::Rotate() {
  conn_.Close();
  if (options_.endpoints.size() > 1) {
    endpoint_ = (endpoint_ + 1) % options_.endpoints.size();
  }
  failovers_n_++;
  if (failovers_ != nullptr) failovers_->Increment();
}

void TardisClient::MergeFloors(const std::map<uint32_t, uint64_t>& learned,
                               uint64_t now_ms) {
  for (const auto& [site, seq] : learned) {
    uint64_t& cur = floors_[site];
    if (seq > cur || floor_learned_ms_.find(site) == floor_learned_ms_.end()) {
      if (seq > cur) cur = seq;
      floor_learned_ms_[site] = now_ms;
    }
  }
}

std::string TardisClient::BuildHeader(Verb verb, uint64_t seq,
                                      uint64_t attempt, uint64_t now_ms,
                                      bool* degraded) {
  if (verb == Verb::kUnsafe) return std::string();
  SessionHeader h;
  h.session_id = session_id_;
  if (verb == Verb::kSessionWrite) {
    h.seq = seq;
    h.attempt = attempt;
    h.flags = kSessionFlagWrite;
  }
  const bool relax = verb == Verb::kReadOnly && options_.stale_reads_ms > 0;
  for (const auto& [site, fseq] : floors_) {
    if (relax) {
      const auto it = floor_learned_ms_.find(site);
      const uint64_t learned = it == floor_learned_ms_.end() ? 0 : it->second;
      if (learned + options_.stale_reads_ms > now_ms) {
        // The floor is younger than the staleness bound: omit it and tell
        // the daemon a replica behind by at most that much may answer.
        h.flags |= kSessionFlagStaleOk;
        *degraded = true;
        continue;
      }
    }
    h.floors.emplace_back(site, fseq);
    if (h.floors.size() >= kMaxSessionFloors) break;
  }
  return FormatSessionHeader(h);
}

TardisClient::Verb TardisClient::Classify(const std::string& line) {
  std::stringstream ss(line);
  std::string cmd;
  ss >> cmd;
  static const char* kReads[] = {"get",   "ping",  "health",    "metrics",
                                 "stats", "leaves", "states",   "peers",
                                 "partition", "trace", "sleep", "dag"};
  for (const char* r : kReads) {
    if (cmd == r) return Verb::kReadOnly;
  }
  if (cmd == "put" || cmd == "mput") return Verb::kSessionWrite;
  return Verb::kUnsafe;
}

Status TardisClient::Execute(const std::string& line, Verb verb, bool multi,
                             uint64_t seq, std::string* out) {
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("no endpoints configured");
  }
  requests_n_++;
  if (requests_ != nullptr) requests_->Increment();
  const uint64_t deadline = NowMillis() + options_.request_deadline_ms;
  backoff_.Reset();
  uint64_t attempt = 0;
  bool first_try = true;
  std::string last = "no attempt completed";
  while (true) {
    if (!first_try) {
      retries_n_++;
      if (retries_ != nullptr) retries_->Increment();
      uint64_t now = NowMillis();
      backoff_.Fail(now);
      const uint64_t wait = backoff_.RemainingMs(now);
      if (now + wait >= deadline) {
        return Status::Unavailable("request deadline exceeded; last: " + last);
      }
      if (wait > 0) usleep(static_cast<useconds_t>(wait * 1000));
    }
    first_try = false;
    const uint64_t now = NowMillis();
    if (now >= deadline) {
      return Status::Unavailable("request deadline exceeded; last: " + last);
    }
    if (!conn_.connected()) {
      // One connect attempt gets at most connect_timeout_ms.
      const Status cs =
          conn_.Connect(options_.endpoints[endpoint_],
                        std::min(deadline, now + options_.connect_timeout_ms));
      if (!cs.ok()) {
        last = cs.ToString();
        Rotate();
        continue;
      }
    }
    bool degraded = false;
    const std::string header = BuildHeader(verb, seq, attempt, now, &degraded);
    if (degraded) {
      stale_reads_n_++;
      if (stale_reads_ != nullptr) stale_reads_->Increment();
    }
    const std::string full = header.empty() ? line : header + " " + line;
    std::string reply;
    bool sent = false;
    std::map<uint32_t, uint64_t> learned;
    const Status s = conn_.Call(full, multi, deadline, &reply, &sent, &learned);
    if (!learned.empty()) MergeFloors(learned, NowMillis());
    if (!s.ok()) {
      last = s.ToString();
      // Connection cut before any byte went out: nothing executed, all
      // verbs retry. Cut after: the outcome is unknown — reads are
      // harmless, sessioned writes dedup server-side, everything else
      // must surface the uncertainty.
      if (sent && verb == Verb::kUnsafe) {
        return Status::IOError("connection lost with request outcome "
                               "unknown (unsafe to retry): " + last);
      }
      Rotate();
      continue;
    }
    if (IsCleanRetryable(reply)) {
      last = reply;
      if (WantsRotate(reply)) Rotate();
      continue;
    }
    if (seq != 0 && StartsWith(reply, "ERR 2PC abort")) {
      // The transaction definitively aborted: re-derive a fresh txn id so
      // the retry is not confused with the aborted attempt's 2PC state.
      last = reply;
      attempt++;
      continue;
    }
    *out = reply;
    return Status::OK();
  }
}

Status TardisClient::Put(const std::string& key, const std::string& value,
                         std::string* state) {
  const uint64_t seq = ++next_seq_;
  std::string reply;
  TARDIS_RETURN_IF_ERROR(
      Execute("put " + key + " " + value, Verb::kSessionWrite, false, seq,
              &reply));
  if (StartsWith(reply, "OK")) {
    if (state != nullptr) {
      *state = StartsWith(reply, "OK STATE ") ? reply.substr(9) : "";
    }
    return Status::OK();
  }
  return Status::Aborted(reply);
}

Status TardisClient::Get(const std::string& key, std::string* value) {
  std::string reply;
  TARDIS_RETURN_IF_ERROR(
      Execute("get " + key, Verb::kReadOnly, false, 0, &reply));
  if (StartsWith(reply, "VALUE ")) {
    *value = reply.substr(6);
    return Status::OK();
  }
  if (reply == "NOTFOUND") return Status::NotFound(key);
  return Status::Aborted(reply);
}

Status TardisClient::MultiPut(
    const std::vector<std::pair<std::string, std::string>>& writes,
    std::string* reply) {
  std::string line = "mput";
  for (const auto& [key, value] : writes) {
    line += " " + key + " " + value;
  }
  const uint64_t seq = ++next_seq_;
  std::string raw;
  TARDIS_RETURN_IF_ERROR(
      Execute(line, Verb::kSessionWrite, false, seq, &raw));
  if (reply != nullptr) *reply = raw;
  return StartsWith(raw, "OK") ? Status::OK() : Status::Aborted(raw);
}

Status TardisClient::Call(const std::string& line, std::string* reply) {
  const Verb verb = Classify(line);
  const uint64_t seq = verb == Verb::kSessionWrite ? ++next_seq_ : 0;
  return Execute(line, verb, false, seq, reply);
}

Status TardisClient::CallMulti(const std::string& line, std::string* body) {
  const Verb verb = Classify(line);
  const uint64_t seq = verb == Verb::kSessionWrite ? ++next_seq_ : 0;
  return Execute(line, verb, true, seq, body);
}

}  // namespace client
}  // namespace tardis
