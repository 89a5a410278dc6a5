#include "net/wire.h"

#include "util/coding.h"
#include "util/crc32.h"

namespace tardis {

namespace {

void PutGuid(std::string* out, const GlobalStateId& g) {
  PutVarint64(out, g.site);
  PutVarint64(out, g.seq);
}

bool GetGuid(Slice* in, GlobalStateId* g) {
  uint64_t site = 0, seq = 0;
  if (!GetVarint64(in, &site)) return false;
  if (site > UINT32_MAX) return false;
  if (!GetVarint64(in, &seq)) return false;
  g->site = static_cast<uint32_t>(site);
  g->seq = seq;
  return true;
}

using WriteSet =
    std::vector<std::pair<std::string, std::shared_ptr<const std::string>>>;

void PutWrites(std::string* out, const WriteSet& writes) {
  PutVarint64(out, writes.size());
  for (const auto& [key, value] : writes) {
    PutLengthPrefixed(out, Slice(key));
    PutLengthPrefixed(out, value ? Slice(*value) : Slice());
  }
}

bool GetWrites(Slice* in, WriteSet* writes) {
  uint64_t nwrites = 0;
  if (!GetVarint64(in, &nwrites)) return false;
  if (nwrites > in->size()) return false;
  writes->clear();
  writes->reserve(static_cast<size_t>(nwrites));
  for (uint64_t i = 0; i < nwrites; i++) {
    Slice key, value;
    if (!GetLengthPrefixed(in, &key)) return false;
    if (!GetLengthPrefixed(in, &value)) return false;
    writes->emplace_back(key.ToString(),
                         std::make_shared<const std::string>(value.ToString()));
  }
  return true;
}

/// Trace context of the request behind a 2PC record (kPrepare/kDecide).
/// Encoded unconditionally — three bytes when untraced.
void PutTrace(std::string* out, const ReplMessage& msg) {
  PutVarint64(out, msg.trace_id);
  PutVarint64(out, msg.trace_span);
  out->push_back(msg.trace_sampled ? 1 : 0);
}

bool GetTrace(Slice* in, ReplMessage* msg) {
  if (!GetVarint64(in, &msg->trace_id)) return false;
  if (!GetVarint64(in, &msg->trace_span)) return false;
  if (in->empty()) return false;
  msg->trace_sampled = (*in)[0] != 0;
  in->remove_prefix(1);
  return true;
}

/// Exactly-once session tag of a prepared client write (kPrepare).
/// Encoded unconditionally — two bytes when unsessioned.
void PutSession(std::string* out, const ReplMessage& msg) {
  PutVarint64(out, msg.session_id);
  PutVarint64(out, msg.session_seq);
}

bool GetSession(Slice* in, ReplMessage* msg) {
  if (!GetVarint64(in, &msg->session_id)) return false;
  return GetVarint64(in, &msg->session_seq);
}

void PutCommitRecord(std::string* out, const CommitRecord& r) {
  PutGuid(out, r.guid);
  PutVarint64(out, r.parent_guids.size());
  for (const GlobalStateId& p : r.parent_guids) PutGuid(out, p);
  out->push_back(r.is_merge ? 1 : 0);
  PutWrites(out, r.writes);
  // v3: the session tag replicates with the commit so every site's dedup
  // table learns about tagged commits from other sites.
  PutVarint64(out, r.session_id);
  PutVarint64(out, r.session_seq);
}

bool GetCommitRecord(Slice* in, CommitRecord* r) {
  if (!GetGuid(in, &r->guid)) return false;
  uint64_t nparents = 0;
  if (!GetVarint64(in, &nparents)) return false;
  // A parent guid is >= 2 bytes; cheap sanity bound before reserving.
  if (nparents > in->size()) return false;
  r->parent_guids.clear();
  r->parent_guids.reserve(static_cast<size_t>(nparents));
  for (uint64_t i = 0; i < nparents; i++) {
    GlobalStateId p;
    if (!GetGuid(in, &p)) return false;
    r->parent_guids.push_back(p);
  }
  if (in->empty()) return false;
  r->is_merge = (*in)[0] != 0;
  in->remove_prefix(1);
  if (!GetWrites(in, &r->writes)) return false;
  if (!GetVarint64(in, &r->session_id)) return false;
  return GetVarint64(in, &r->session_seq);
}

}  // namespace

void EncodeReplMessage(const ReplMessage& msg, std::string* out) {
  out->push_back(static_cast<char>(kWireVersion));
  out->push_back(static_cast<char>(msg.type));
  PutVarint64(out, msg.from_site);
  switch (msg.type) {
    case ReplMessage::Type::kCommit:
      PutCommitRecord(out, msg.commit);
      break;
    case ReplMessage::Type::kSyncRequest:
    case ReplMessage::Type::kHeartbeat:
      PutVarint64(out, msg.seen_seq.size());
      for (uint64_t s : msg.seen_seq) PutVarint64(out, s);
      break;
    case ReplMessage::Type::kCeilingRequest:
    case ReplMessage::Type::kCeilingAck:
    case ReplMessage::Type::kCeilingCommit:
      PutGuid(out, msg.ceiling);
      PutVarint64(out, msg.ceiling_epoch);
      break;
    case ReplMessage::Type::kSnapshot:
      PutVarint64(out, msg.seen_seq.size());
      for (uint64_t s : msg.seen_seq) PutVarint64(out, s);
      PutVarint64(out, msg.snapshot.size());
      for (const CommitRecord& r : msg.snapshot) PutCommitRecord(out, r);
      break;
    case ReplMessage::Type::kHello:
    case ReplMessage::Type::kHelloAck:
      break;  // identity is the from_site varint every payload carries
    case ReplMessage::Type::kPrepare:
      PutVarint64(out, msg.txn_id);
      PutWrites(out, msg.commit.writes);
      PutVarint64(out, msg.endpoints.size());
      for (const std::string& ep : msg.endpoints) {
        PutLengthPrefixed(out, Slice(ep));
      }
      PutTrace(out, msg);
      PutSession(out, msg);
      break;
    case ReplMessage::Type::kDecide:
      PutVarint64(out, msg.txn_id);
      out->push_back(static_cast<char>(msg.decision));
      PutTrace(out, msg);
      break;
  }
}

Status DecodeReplMessage(Slice payload, ReplMessage* out) {
  Slice in = payload;
  if (in.size() < 2) return Status::Corruption("payload too short");
  const uint8_t version = static_cast<uint8_t>(in[0]);
  if (version != kWireVersion) {
    return Status::Corruption("unsupported wire version " +
                              std::to_string(version));
  }
  const uint8_t type_byte = static_cast<uint8_t>(in[1]);
  if (type_byte > static_cast<uint8_t>(ReplMessage::Type::kHelloAck) &&
      type_byte != static_cast<uint8_t>(ReplMessage::Type::kPrepare) &&
      type_byte != static_cast<uint8_t>(ReplMessage::Type::kDecide)) {
    return Status::Corruption("unknown message type " +
                              std::to_string(type_byte));
  }
  in.remove_prefix(2);

  ReplMessage msg;
  msg.type = static_cast<ReplMessage::Type>(type_byte);
  uint64_t from = 0;
  if (!GetVarint64(&in, &from) || from > UINT32_MAX) {
    return Status::Corruption("bad from_site");
  }
  msg.from_site = static_cast<uint32_t>(from);

  switch (msg.type) {
    case ReplMessage::Type::kCommit:
      if (!GetCommitRecord(&in, &msg.commit)) {
        return Status::Corruption("bad commit record");
      }
      break;
    case ReplMessage::Type::kSyncRequest:
    case ReplMessage::Type::kHeartbeat: {
      uint64_t count = 0;
      if (!GetVarint64(&in, &count) || count > in.size()) {
        return Status::Corruption("bad seen_seq count");
      }
      msg.seen_seq.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; i++) {
        uint64_t s = 0;
        if (!GetVarint64(&in, &s)) return Status::Corruption("bad seen_seq");
        msg.seen_seq.push_back(s);
      }
      break;
    }
    case ReplMessage::Type::kCeilingRequest:
    case ReplMessage::Type::kCeilingAck:
    case ReplMessage::Type::kCeilingCommit:
      if (!GetGuid(&in, &msg.ceiling)) {
        return Status::Corruption("bad ceiling guid");
      }
      if (!GetVarint64(&in, &msg.ceiling_epoch)) {
        return Status::Corruption("bad ceiling epoch");
      }
      break;
    case ReplMessage::Type::kSnapshot: {
      uint64_t count = 0;
      if (!GetVarint64(&in, &count) || count > in.size()) {
        return Status::Corruption("bad seen_seq count");
      }
      msg.seen_seq.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; i++) {
        uint64_t s = 0;
        if (!GetVarint64(&in, &s)) return Status::Corruption("bad seen_seq");
        msg.seen_seq.push_back(s);
      }
      uint64_t nrecords = 0;
      if (!GetVarint64(&in, &nrecords) || nrecords > in.size()) {
        return Status::Corruption("bad snapshot record count");
      }
      msg.snapshot.reserve(static_cast<size_t>(nrecords));
      for (uint64_t i = 0; i < nrecords; i++) {
        CommitRecord r;
        if (!GetCommitRecord(&in, &r)) {
          return Status::Corruption("bad snapshot record");
        }
        msg.snapshot.push_back(std::move(r));
      }
      break;
    }
    case ReplMessage::Type::kHello:
    case ReplMessage::Type::kHelloAck:
      break;
    case ReplMessage::Type::kPrepare: {
      if (!GetVarint64(&in, &msg.txn_id)) {
        return Status::Corruption("bad txn id");
      }
      if (!GetWrites(&in, &msg.commit.writes)) {
        return Status::Corruption("bad prepare write set");
      }
      uint64_t neps = 0;
      if (!GetVarint64(&in, &neps) || neps > in.size()) {
        return Status::Corruption("bad endpoint count");
      }
      msg.endpoints.reserve(static_cast<size_t>(neps));
      for (uint64_t i = 0; i < neps; i++) {
        Slice ep;
        if (!GetLengthPrefixed(&in, &ep)) {
          return Status::Corruption("bad endpoint");
        }
        msg.endpoints.push_back(ep.ToString());
      }
      if (!GetTrace(&in, &msg)) {
        return Status::Corruption("bad prepare trace context");
      }
      if (!GetSession(&in, &msg)) {
        return Status::Corruption("bad prepare session tag");
      }
      break;
    }
    case ReplMessage::Type::kDecide:
      if (!GetVarint64(&in, &msg.txn_id)) {
        return Status::Corruption("bad txn id");
      }
      if (in.empty()) return Status::Corruption("missing decision byte");
      msg.decision = static_cast<uint8_t>(in[0]);
      in.remove_prefix(1);
      if (!GetTrace(&in, &msg)) {
        return Status::Corruption("bad decide trace context");
      }
      break;
  }
  if (!in.empty()) return Status::Corruption("trailing bytes in payload");
  *out = std::move(msg);
  return Status::OK();
}

void EncodeFrame(const ReplMessage& msg, std::string* out) {
  const size_t header_at = out->size();
  out->append(kWireHeaderBytes, '\0');
  EncodeReplMessage(msg, out);
  const size_t payload_len = out->size() - header_at - kWireHeaderBytes;
  const char* payload = out->data() + header_at + kWireHeaderBytes;
  EncodeFixed32(out->data() + header_at, static_cast<uint32_t>(payload_len));
  EncodeFixed32(out->data() + header_at + 4,
                MaskCrc(Crc32c(payload, payload_len)));
}

Status DecodeFrame(Slice buffer, ReplMessage* out, size_t* consumed) {
  *consumed = 0;
  if (buffer.size() < kWireHeaderBytes) return Status::OK();  // need header
  const uint32_t payload_len = DecodeFixed32(buffer.data());
  if (payload_len > kMaxWirePayload) {
    return Status::Corruption("oversized frame: " +
                              std::to_string(payload_len) + " bytes");
  }
  if (buffer.size() < kWireHeaderBytes + payload_len) {
    return Status::OK();  // need more payload bytes
  }
  const uint32_t expected_crc = UnmaskCrc(DecodeFixed32(buffer.data() + 4));
  const char* payload = buffer.data() + kWireHeaderBytes;
  if (Crc32c(payload, payload_len) != expected_crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  TARDIS_RETURN_IF_ERROR(DecodeReplMessage(Slice(payload, payload_len), out));
  *consumed = kWireHeaderBytes + payload_len;
  return Status::OK();
}

}  // namespace tardis
