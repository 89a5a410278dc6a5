// Wire codec tests: property-based encode→decode round-trips over random
// messages, stream reassembly semantics, and a malformed-input battery —
// truncation, CRC corruption, hostile length prefixes, random fuzz. The
// decoder must return Status for every bad input; it must never throw,
// crash, or over-read. The 2PC line format (cluster/twopc_line.h), the
// other parser of coordination bytes off the network, gets the same
// round-trip and malformed-input treatment.

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "cluster/twopc_line.h"
#include "net/wire.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/random.h"

namespace tardis {
namespace {

std::string RandomBytes(Random* rng, size_t max_len) {
  std::string s(rng->Uniform(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng->Uniform(256));
  return s;
}

GlobalStateId RandomGuid(Random* rng) {
  GlobalStateId g;
  g.site = static_cast<uint32_t>(rng->Next());
  g.seq = rng->Next();
  return g;
}

CommitRecord RandomCommit(Random* rng) {
  CommitRecord commit;
  commit.guid = RandomGuid(rng);
  const size_t nparents = rng->Uniform(4);
  for (size_t i = 0; i < nparents; i++) {
    commit.parent_guids.push_back(RandomGuid(rng));
  }
  commit.is_merge = rng->Bernoulli(0.3);
  const size_t nwrites = rng->Uniform(8);
  for (size_t i = 0; i < nwrites; i++) {
    commit.writes.emplace_back(
        RandomBytes(rng, 32),
        std::make_shared<const std::string>(RandomBytes(rng, 256)));
  }
  return commit;
}

/// Half the traced frame types get a live trace context (trace_id 0, the
/// untraced case, is the other half of the coverage).
void RandomTrace(Random* rng, ReplMessage* msg) {
  if (rng->Bernoulli(0.5)) return;
  msg->trace_id = rng->Next() | 1;  // non-zero
  msg->trace_span = rng->Next();
  msg->trace_sampled = rng->Bernoulli(0.5);
}

constexpr ReplMessage::Type kAllTypes[] = {
    ReplMessage::Type::kCommit,         ReplMessage::Type::kSyncRequest,
    ReplMessage::Type::kCeilingRequest, ReplMessage::Type::kCeilingAck,
    ReplMessage::Type::kCeilingCommit,  ReplMessage::Type::kHeartbeat,
    ReplMessage::Type::kSnapshot,       ReplMessage::Type::kHello,
    ReplMessage::Type::kHelloAck,       ReplMessage::Type::kPrepare,
    ReplMessage::Type::kDecide,
};

ReplMessage RandomMessage(Random* rng) {
  ReplMessage msg;
  msg.type = kAllTypes[rng->Uniform(std::size(kAllTypes))];
  msg.from_site = static_cast<uint32_t>(rng->Next());
  switch (msg.type) {
    case ReplMessage::Type::kCommit:
      msg.commit = RandomCommit(rng);
      break;
    case ReplMessage::Type::kSyncRequest:
    case ReplMessage::Type::kHeartbeat: {
      const size_t n = rng->Uniform(6);
      for (size_t i = 0; i < n; i++) msg.seen_seq.push_back(rng->Next());
      break;
    }
    case ReplMessage::Type::kSnapshot: {
      const size_t n = rng->Uniform(6);
      for (size_t i = 0; i < n; i++) msg.seen_seq.push_back(rng->Next());
      const size_t nrecords = rng->Uniform(5);
      for (size_t i = 0; i < nrecords; i++) {
        msg.snapshot.push_back(RandomCommit(rng));
      }
      break;
    }
    case ReplMessage::Type::kCeilingRequest:
    case ReplMessage::Type::kCeilingAck:
    case ReplMessage::Type::kCeilingCommit:
      msg.ceiling = RandomGuid(rng);
      msg.ceiling_epoch = rng->Next();
      break;
    case ReplMessage::Type::kHello:
    case ReplMessage::Type::kHelloAck:
      break;  // identity-only handshake frames: empty body
    case ReplMessage::Type::kPrepare: {
      msg.txn_id = rng->Next();
      msg.commit.writes = RandomCommit(rng).writes;
      const size_t neps = rng->Uniform(4);
      for (size_t i = 0; i < neps; i++) {
        msg.endpoints.push_back("127.0.0.1:" +
                                std::to_string(rng->Uniform(65536)));
      }
      RandomTrace(rng, &msg);
      msg.session_id = rng->Next();
      msg.session_seq = rng->Next();
      break;
    }
    case ReplMessage::Type::kDecide:
      msg.txn_id = rng->Next();
      msg.decision = static_cast<uint8_t>(rng->Uniform(3));
      RandomTrace(rng, &msg);
      break;
  }
  return msg;
}

void ExpectCommitsEqual(const CommitRecord& a, const CommitRecord& b) {
  EXPECT_EQ(a.guid, b.guid);
  EXPECT_EQ(a.parent_guids, b.parent_guids);
  EXPECT_EQ(a.is_merge, b.is_merge);
  ASSERT_EQ(a.writes.size(), b.writes.size());
  for (size_t i = 0; i < a.writes.size(); i++) {
    EXPECT_EQ(a.writes[i].first, b.writes[i].first);
    ASSERT_NE(a.writes[i].second, nullptr);
    ASSERT_NE(b.writes[i].second, nullptr);
    EXPECT_EQ(*a.writes[i].second, *b.writes[i].second);
  }
}

void ExpectMessagesEqual(const ReplMessage& a, const ReplMessage& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.from_site, b.from_site);
  ExpectCommitsEqual(a.commit, b.commit);
  EXPECT_EQ(a.seen_seq, b.seen_seq);
  ASSERT_EQ(a.snapshot.size(), b.snapshot.size());
  for (size_t i = 0; i < a.snapshot.size(); i++) {
    ExpectCommitsEqual(a.snapshot[i], b.snapshot[i]);
  }
  EXPECT_EQ(a.ceiling, b.ceiling);
  EXPECT_EQ(a.ceiling_epoch, b.ceiling_epoch);
  EXPECT_EQ(a.txn_id, b.txn_id);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.endpoints, b.endpoints);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.trace_span, b.trace_span);
  EXPECT_EQ(a.trace_sampled, b.trace_sampled);
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.session_seq, b.session_seq);
}

TEST(WireCodecTest, RoundTripProperty) {
  Random rng(20160626);  // SIGMOD'16
  for (int iter = 0; iter < 500; iter++) {
    const ReplMessage msg = RandomMessage(&rng);
    std::string frame;
    EncodeFrame(msg, &frame);
    ReplMessage decoded;
    size_t consumed = 0;
    Status s = DecodeFrame(Slice(frame), &decoded, &consumed);
    ASSERT_TRUE(s.ok()) << iter << ": " << s.ToString();
    ASSERT_EQ(consumed, frame.size());
    ExpectMessagesEqual(msg, decoded);
  }
}

// The 2PC records (PREPARE/DECIDE) round-trip with every field intact —
// the participant persists them verbatim in its twopc.log, so a lossy
// codec would corrupt crash recovery.
TEST(WireCodecTest, CoordinationFrameRoundTripProperty) {
  Random rng(0x2BC);
  const ReplMessage::Type kCoordTypes[] = {
      ReplMessage::Type::kPrepare,
      ReplMessage::Type::kDecide,
  };
  for (int iter = 0; iter < 700; iter++) {
    ReplMessage msg;
    // Draw random messages until one lands on the record type under test,
    // so every field combination the generator produces is covered.
    do {
      msg = RandomMessage(&rng);
    } while (msg.type != kCoordTypes[iter % 2]);
    std::string frame;
    EncodeFrame(msg, &frame);
    ReplMessage decoded;
    size_t consumed = 0;
    Status s = DecodeFrame(Slice(frame), &decoded, &consumed);
    ASSERT_TRUE(s.ok()) << iter << ": " << s.ToString();
    ASSERT_EQ(consumed, frame.size());
    ExpectMessagesEqual(msg, decoded);
  }
}

TEST(WireCodecTest, PayloadRoundTripWithoutFrame) {
  Random rng(99);
  for (int iter = 0; iter < 200; iter++) {
    const ReplMessage msg = RandomMessage(&rng);
    std::string payload;
    EncodeReplMessage(msg, &payload);
    ReplMessage decoded;
    ASSERT_TRUE(DecodeReplMessage(Slice(payload), &decoded).ok());
    ExpectMessagesEqual(msg, decoded);
  }
}

TEST(WireCodecTest, StreamReassemblyByteAtATime) {
  Random rng(42);
  const ReplMessage msg = RandomMessage(&rng);
  std::string frame;
  EncodeFrame(msg, &frame);
  // Every strict prefix must report "need more bytes", not an error.
  for (size_t n = 0; n < frame.size(); n++) {
    ReplMessage decoded;
    size_t consumed = 0;
    Status s = DecodeFrame(Slice(frame.data(), n), &decoded, &consumed);
    ASSERT_TRUE(s.ok()) << "prefix " << n << ": " << s.ToString();
    ASSERT_EQ(consumed, 0u) << "prefix " << n;
  }
}

TEST(WireCodecTest, TwoFramesBackToBack) {
  Random rng(7);
  const ReplMessage m1 = RandomMessage(&rng);
  const ReplMessage m2 = RandomMessage(&rng);
  std::string buf;
  EncodeFrame(m1, &buf);
  const size_t first_len = buf.size();
  EncodeFrame(m2, &buf);

  ReplMessage decoded;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(Slice(buf), &decoded, &consumed).ok());
  EXPECT_EQ(consumed, first_len);
  ExpectMessagesEqual(m1, decoded);
  ASSERT_TRUE(DecodeFrame(Slice(buf.data() + consumed, buf.size() - consumed),
                          &decoded, &consumed)
                  .ok());
  ExpectMessagesEqual(m2, decoded);
}

std::string ValidFrame() {
  ReplMessage msg;
  msg.type = ReplMessage::Type::kCommit;
  msg.from_site = 2;
  msg.commit.guid = {2, 9};
  msg.commit.parent_guids = {{1, 8}};
  msg.commit.writes.emplace_back(
      "key", std::make_shared<const std::string>("value"));
  std::string frame;
  EncodeFrame(msg, &frame);
  return frame;
}

TEST(WireCodecTest, CorruptedCrcIsRejected) {
  std::string frame = ValidFrame();
  frame[4] ^= 0x01;  // flip a CRC bit
  ReplMessage decoded;
  size_t consumed = 0;
  Status s = DecodeFrame(Slice(frame), &decoded, &consumed);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(consumed, 0u);
}

TEST(WireCodecTest, CorruptedPayloadByteIsRejected) {
  std::string frame = ValidFrame();
  frame[kWireHeaderBytes + 5] ^= 0xFF;  // payload damage, CRC unchanged
  ReplMessage decoded;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(Slice(frame), &decoded, &consumed).IsCorruption());
}

TEST(WireCodecTest, OversizedLengthPrefixIsRejected) {
  std::string frame = ValidFrame();
  EncodeFixed32(frame.data(), kMaxWirePayload + 1);
  ReplMessage decoded;
  size_t consumed = 0;
  Status s = DecodeFrame(Slice(frame), &decoded, &consumed);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(WireCodecTest, TruncatedPayloadWithFixedCrcIsRejected) {
  // Shrink the declared length so the payload decodes short; refresh the
  // CRC so the payload decoder (not the checksum) must catch it.
  std::string frame = ValidFrame();
  const uint32_t len = DecodeFixed32(frame.data());
  const uint32_t short_len = len - 3;
  EncodeFixed32(frame.data(), short_len);
  EncodeFixed32(frame.data() + 4,
                MaskCrc(Crc32c(frame.data() + kWireHeaderBytes, short_len)));
  ReplMessage decoded;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(Slice(frame), &decoded, &consumed).IsCorruption());
}

TEST(WireCodecTest, TrailingPayloadBytesAreRejected) {
  std::string frame = ValidFrame();
  frame.push_back('\x7f');
  const uint32_t len = DecodeFixed32(frame.data()) + 1;
  EncodeFixed32(frame.data(), len);
  EncodeFixed32(frame.data() + 4,
                MaskCrc(Crc32c(frame.data() + kWireHeaderBytes, len)));
  ReplMessage decoded;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(Slice(frame), &decoded, &consumed).IsCorruption());
}

TEST(WireCodecTest, BadVersionAndTypeAreRejected) {
  for (size_t victim : {size_t{0}, size_t{1}}) {
    std::string frame = ValidFrame();
    frame[kWireHeaderBytes + victim] = '\x63';
    const uint32_t len = DecodeFixed32(frame.data());
    EncodeFixed32(frame.data() + 4,
                  MaskCrc(Crc32c(frame.data() + kWireHeaderBytes, len)));
    ReplMessage decoded;
    size_t consumed = 0;
    Status s = DecodeFrame(Slice(frame), &decoded, &consumed);
    EXPECT_TRUE(s.IsCorruption()) << "byte " << victim << ": " << s.ToString();
  }
}

TEST(WireCodecTest, EmptyPayloadFrameIsRejected) {
  std::string frame;
  PutFixed32(&frame, 0);
  PutFixed32(&frame, MaskCrc(Crc32c("", 0)));
  ReplMessage decoded;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(Slice(frame), &decoded, &consumed).IsCorruption());
}

TEST(WireCodecTest, FuzzedBuffersNeverCrash) {
  Random rng(0xFADE);
  // Pure garbage.
  for (int iter = 0; iter < 2000; iter++) {
    const std::string junk = RandomBytes(&rng, 96);
    ReplMessage decoded;
    size_t consumed = 0;
    Status s = DecodeFrame(Slice(junk), &decoded, &consumed);
    if (s.ok() && consumed == 0) continue;  // wants more bytes: fine
    // Anything else must be a clean Corruption verdict (a random CRC
    // match is a ~2^-32 event per iteration; treat one as a failure).
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  // Mutated-but-checksummed frames: the CRC is recomputed after each
  // mutation so the structural decoder itself gets fuzzed.
  for (int iter = 0; iter < 2000; iter++) {
    std::string frame = ValidFrame();
    const size_t mutations = 1 + rng.Uniform(8);
    for (size_t m = 0; m < mutations; m++) {
      frame[kWireHeaderBytes + rng.Uniform(frame.size() - kWireHeaderBytes)] =
          static_cast<char>(rng.Uniform(256));
    }
    const uint32_t len = DecodeFixed32(frame.data());
    EncodeFixed32(frame.data() + 4,
                  MaskCrc(Crc32c(frame.data() + kWireHeaderBytes, len)));
    ReplMessage decoded;
    size_t consumed = 0;
    Status s = DecodeFrame(Slice(frame), &decoded, &consumed);
    EXPECT_TRUE(s.ok() || s.IsCorruption()) << s.ToString();
  }
}

// The type bytes of the retired coordination frames (route, route reply,
// prepare ack, decide ack, txn status) and anything past the last type
// are unknown types, never misparsed as live ones.
TEST(WireCodecTest, RetiredCoordinationTypesAreRejected) {
  for (uint8_t type : {9, 10, 12, 14, 15, 16, 255}) {
    std::string payload;
    payload.push_back(static_cast<char>(kWireVersion));
    payload.push_back(static_cast<char>(type));
    PutVarint64(&payload, 0);  // from_site
    PutVarint64(&payload, 7);  // what a txn id would have been
    ReplMessage decoded;
    Status s = DecodeReplMessage(Slice(payload), &decoded);
    EXPECT_TRUE(s.IsCorruption()) << int{type} << ": " << s.ToString();
  }
}

// ---- 2PC line format (cluster/twopc_line.h) ---------------------------------

std::string RandomToken(Random* rng) {
  static const char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-:/";
  std::string s(1 + rng->Uniform(12), 'x');
  for (char& c : s) c = kChars[rng->Uniform(sizeof(kChars) - 1)];
  return s;
}

cluster::TwoPhaseDecision RandomDecision(Random* rng) {
  return static_cast<cluster::TwoPhaseDecision>(rng->Uniform(3));
}

TEST(TwoPhaseLineTest, RequestAndReplyRoundTrip) {
  Random rng(0x2BC1);
  for (int iter = 0; iter < 600; iter++) {
    const uint64_t txn = rng.Next();
    cluster::TwoPhaseRequest req;
    switch (iter % 3) {
      case 0: {
        ReplMessage prep;
        prep.type = ReplMessage::Type::kPrepare;
        prep.txn_id = txn;
        prep.session_id = rng.Bernoulli(0.5) ? rng.Next() : 0;
        prep.session_seq = rng.Next();
        const size_t neps = 1 + rng.Uniform(4);
        for (size_t i = 0; i < neps; i++) {
          prep.endpoints.push_back("127.0.0.1:" +
                                   std::to_string(1 + rng.Uniform(65535)));
        }
        const size_t nwrites = 1 + rng.Uniform(6);
        for (size_t i = 0; i < nwrites; i++) {
          prep.commit.writes.emplace_back(
              RandomToken(&rng),
              std::make_shared<const std::string>(RandomToken(&rng)));
        }
        const std::string line = cluster::FormatPrepare(prep);
        ASSERT_TRUE(cluster::ParseTwoPhaseRequest(line, &req).ok()) << line;
        EXPECT_EQ(req.verb, cluster::TwoPhaseRequest::Verb::kPrepare);
        EXPECT_EQ(req.txn_id, txn);
        ExpectMessagesEqual(prep, req.prepare);
        break;
      }
      case 1: {
        const auto d = rng.Bernoulli(0.5) ? cluster::TwoPhaseDecision::kCommit
                                          : cluster::TwoPhaseDecision::kAbort;
        const std::string line = cluster::FormatDecide(txn, d);
        ASSERT_TRUE(cluster::ParseTwoPhaseRequest(line, &req).ok()) << line;
        EXPECT_EQ(req.verb, cluster::TwoPhaseRequest::Verb::kDecide);
        EXPECT_EQ(req.txn_id, txn);
        EXPECT_EQ(req.decision, d);
        break;
      }
      default: {
        const std::string line = cluster::FormatTxnStatus(txn);
        ASSERT_TRUE(cluster::ParseTwoPhaseRequest(line, &req).ok()) << line;
        EXPECT_EQ(req.verb, cluster::TwoPhaseRequest::Verb::kTxnStatus);
        EXPECT_EQ(req.txn_id, txn);
        break;
      }
    }
    const cluster::TwoPhaseReply reply{txn, RandomDecision(&rng),
                                       rng.Bernoulli(0.5)};
    cluster::TwoPhaseReply parsed;
    const std::string line = cluster::FormatTwoPhaseReply(reply);
    ASSERT_TRUE(cluster::ParseTwoPhaseReply(line, &parsed).ok()) << line;
    EXPECT_EQ(parsed.txn_id, reply.txn_id);
    EXPECT_EQ(parsed.decision, reply.decision);
    EXPECT_EQ(parsed.forked, reply.forked);
  }
}

TEST(TwoPhaseLineTest, MalformedLinesAreRejected) {
  const std::string overlong =
      "prepare 1 0 0 a:1 k " + std::string((1u << 20) + 1, 'v');
  for (const std::string& bad : std::vector<std::string>{
           "", " ", "commit 1", "PREPARE 1 0 0 a:1 k v",
           // missing fields
           "prepare", "prepare 1", "prepare 1 0 0", "prepare 1 0 0 a:1",
           "decide", "decide 1", "txnstatus",
           // non-numeric or out-of-range ids
           "prepare x 0 0 a:1 k v", "prepare 1 s 0 a:1 k v",
           "prepare 1 0 -3 a:1 k v", "decide -1 commit", "decide 0x10 abort",
           "txnstatus 18446744073709551616", "txnstatus 1e3",
           // odd key/value token counts
           "prepare 1 0 0 a:1 k", "prepare 1 0 0 a:1 k v k2",
           // bad endpoint lists and decisions
           "prepare 1 0 0 ,a:1 k v", "prepare 1 0 0 a:1, k v",
           "prepare 1 0 0 a:1,,b:2 k v", "decide 1 maybe",
           "decide 1 unknown", "decide 1 commit now", "txnstatus 1 2",
           overlong}) {
    cluster::TwoPhaseRequest req;
    const Status s = cluster::ParseTwoPhaseRequest(bad, &req);
    EXPECT_TRUE(s.IsInvalidArgument()) << bad.substr(0, 60);
  }
  for (const std::string& bad : std::vector<std::string>{
           "", "2PC", "2PC 1", "2PC x commit", "2PC 1 maybe",
           "2PC 1 commit SPOON", "2PC 1 commit FORKED extra",
           "ERR BUSY queue full; retry", "OK", "2pc 1 commit",
           "2PC " + std::string((1u << 20) + 1, '1') + " commit"}) {
    cluster::TwoPhaseReply reply;
    const Status s = cluster::ParseTwoPhaseReply(bad, &reply);
    EXPECT_TRUE(s.IsInvalidArgument()) << bad.substr(0, 60);
  }
}

TEST(TwoPhaseLineTest, FuzzedLinesNeverCrash) {
  Random rng(0x2BC2);
  ReplMessage prep;
  prep.txn_id = 42;
  prep.endpoints = {"127.0.0.1:7000", "127.0.0.1:7001"};
  prep.commit.writes.emplace_back("key",
                                  std::make_shared<const std::string>("v"));
  const std::string valid[] = {cluster::FormatPrepare(prep),
                               cluster::FormatDecide(
                                   42, cluster::TwoPhaseDecision::kCommit),
                               cluster::FormatTxnStatus(42),
                               "2PC 42 commit FORKED"};
  for (int iter = 0; iter < 4000; iter++) {
    std::string line;
    if (iter % 2 == 0) {
      line = RandomBytes(&rng, 96);
    } else {
      line = valid[rng.Uniform(std::size(valid))];
      const size_t mutations = 1 + rng.Uniform(6);
      for (size_t m = 0; m < mutations; m++) {
        line[rng.Uniform(line.size())] = static_cast<char>(rng.Uniform(256));
      }
    }
    cluster::TwoPhaseRequest req;
    Status s = cluster::ParseTwoPhaseRequest(line, &req);
    EXPECT_TRUE(s.ok() || s.IsInvalidArgument()) << s.ToString();
    cluster::TwoPhaseReply reply;
    s = cluster::ParseTwoPhaseReply(line, &reply);
    EXPECT_TRUE(s.ok() || s.IsInvalidArgument()) << s.ToString();
  }
}

}  // namespace
}  // namespace tardis
