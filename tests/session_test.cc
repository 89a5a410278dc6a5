// Client sessions & exactly-once retries (src/core/session.*,
// DESIGN.md §13): the `*S` header codec, floor tokens, deterministic 2PC
// txn-id derivation, floor coverage, the bounded SessionDedup table, the
// commit-log session fields (including pre-session compatibility), and
// dedup survival across a store crash-restart.

#include "core/session.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/commit_log.h"
#include "core/tardis_store.h"

namespace tardis {
namespace {

TEST(SessionHeaderTest, FormatParseRoundTrip) {
  SessionHeader h;
  h.session_id = 0xdeadbeefcafe;
  h.seq = 42;
  h.attempt = 3;
  h.flags = kSessionFlagWrite | kSessionFlagStaleOk;
  h.floors.emplace_back(0, 17);
  h.floors.emplace_back(2, 900);
  const std::string token = FormatSessionHeader(h);
  EXPECT_EQ(token.rfind("*S", 0), 0u) << token;

  SessionHeader parsed;
  ASSERT_TRUE(ParseSessionHeader(token, &parsed)) << token;
  EXPECT_EQ(parsed.session_id, h.session_id);
  EXPECT_EQ(parsed.seq, h.seq);
  EXPECT_EQ(parsed.attempt, h.attempt);
  EXPECT_EQ(parsed.flags, h.flags);
  ASSERT_EQ(parsed.floors.size(), 2u);
  EXPECT_EQ(parsed.floors[0], (std::pair<uint32_t, uint64_t>{0, 17}));
  EXPECT_EQ(parsed.floors[1], (std::pair<uint32_t, uint64_t>{2, 900}));
  EXPECT_TRUE(parsed.write());
  EXPECT_TRUE(parsed.stale_ok());
}

TEST(SessionHeaderTest, NoFloorsRoundTrip) {
  SessionHeader h;
  h.session_id = 1;
  const std::string token = FormatSessionHeader(h);
  SessionHeader parsed;
  ASSERT_TRUE(ParseSessionHeader(token, &parsed));
  EXPECT_EQ(parsed.session_id, 1u);
  EXPECT_TRUE(parsed.floors.empty());
}

TEST(SessionHeaderTest, RejectsMalformed) {
  SessionHeader h;
  // Too few fields.
  EXPECT_FALSE(ParseSessionHeader("*S1/2/3", &h));
  // Session id 0 means "no session" and is not a valid header.
  EXPECT_FALSE(ParseSessionHeader("*S0/1/0/1", &h));
  // Non-hex field.
  EXPECT_FALSE(ParseSessionHeader("*Szz/1/0/1", &h));
  // Bad floor syntax.
  EXPECT_FALSE(ParseSessionHeader("*S1/1/0/1/nope", &h));
  EXPECT_FALSE(ParseSessionHeader("*S1/1/0/1/0:", &h));
  // Trailing separator with no floors.
  EXPECT_FALSE(ParseSessionHeader("*S1/1/0/1/", &h));
  // Not an *S token at all.
  EXPECT_FALSE(ParseSessionHeader("put k v", &h));
}

TEST(SessionHeaderTest, RejectsOversized) {
  // A syntactically plausible token pushed past the byte cap.
  std::string token = "*S1/1/0/1";
  std::string floors;
  for (int i = 0; floors.size() < kMaxSessionHeaderBytes; i++) {
    floors += (i ? "," : "/") + std::to_string(i % 4) + ":" +
              std::to_string(1000000 + i);
  }
  token += floors;
  SessionHeader h;
  EXPECT_FALSE(ParseSessionHeader(token, &h));
}

TEST(SessionHeaderTest, RejectsTooManyFloors) {
  std::string token = "*S1/1/0/1";
  for (size_t i = 0; i <= kMaxSessionFloors; i++) {
    token += (i ? "," : "/") + std::to_string(i) + ":1";
  }
  SessionHeader h;
  EXPECT_FALSE(ParseSessionHeader(token, &h));
}

TEST(SessionHeaderTest, StripStatuses) {
  SessionHeader h;
  std::string line = "put k v";
  EXPECT_EQ(StripSessionHeader(&line, &h), SessionHeaderStatus::kAbsent);
  EXPECT_EQ(line, "put k v");

  SessionHeader src;
  src.session_id = 7;
  src.seq = 9;
  src.flags = kSessionFlagWrite;
  line = FormatSessionHeader(src) + " put k v";
  EXPECT_EQ(StripSessionHeader(&line, &h), SessionHeaderStatus::kOk);
  EXPECT_EQ(line, "put k v");
  EXPECT_EQ(h.session_id, 7u);
  EXPECT_EQ(h.seq, 9u);

  // Malformed: the token is consumed but the caller must REJECT, never
  // execute the rest (unlike the trace header's silent strip).
  line = "*Sgarbage put k v";
  EXPECT_EQ(StripSessionHeader(&line, &h), SessionHeaderStatus::kMalformed);
}

TEST(SessionFloorTest, TokenRoundTripAndMerge) {
  std::map<uint32_t, uint64_t> floors{{0, 5}, {3, 70}};
  const std::string token = FormatFloorToken(floors);
  EXPECT_EQ(token.rfind("*F", 0), 0u) << token;

  std::map<uint32_t, uint64_t> merged{{0, 9}, {1, 2}};
  std::string reply = token + " OK STATE 0:5";
  ASSERT_TRUE(StripFloorToken(&reply, &merged));
  EXPECT_EQ(reply, "OK STATE 0:5");
  EXPECT_EQ(merged[0], 9u);  // kept the larger existing floor
  EXPECT_EQ(merged[1], 2u);
  EXPECT_EQ(merged[3], 70u);

  std::map<uint32_t, uint64_t> none;
  reply = "OK";
  EXPECT_FALSE(StripFloorToken(&reply, &none));
  EXPECT_EQ(reply, "OK");
}

TEST(SessionTxnIdTest, DeterministicNonZeroAndAttemptSensitive) {
  const uint64_t a = DeriveSessionTxnId(11, 22, 0);
  EXPECT_EQ(a, DeriveSessionTxnId(11, 22, 0));
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, DeriveSessionTxnId(11, 23, 0));
  EXPECT_NE(a, DeriveSessionTxnId(12, 22, 0));
  // A bumped attempt re-derives a distinct id so a fresh 2PC round is
  // not confused with the aborted one.
  EXPECT_NE(a, DeriveSessionTxnId(11, 22, 1));
}

TEST(SessionFloorsCoveredTest, LocalAndRemoteFloors) {
  SessionHeader h;
  h.session_id = 1;
  h.floors.emplace_back(0, 10);
  h.floors.emplace_back(1, 5);
  std::map<uint32_t, uint64_t> applied{{1, 5}};
  EXPECT_TRUE(SessionFloorsCovered(h, /*local_site=*/0,
                                   /*local_applied_seq=*/10, applied));
  EXPECT_FALSE(SessionFloorsCovered(h, 0, 9, applied));
  applied[1] = 4;
  EXPECT_FALSE(SessionFloorsCovered(h, 0, 10, applied));
  // A floor for an origin the applied map has never heard of counts as 0.
  h.floors.emplace_back(2, 1);
  applied[1] = 5;
  EXPECT_FALSE(SessionFloorsCovered(h, 0, 10, applied));
}

TEST(SessionDedupTest, LookupRecordAndDuplicates) {
  SessionDedup dedup;
  GlobalStateId guid{0, 7};
  GlobalStateId out;
  EXPECT_FALSE(dedup.Lookup(1, 1, &out));
  dedup.Record(1, 1, guid);
  ASSERT_TRUE(dedup.Lookup(1, 1, &out));
  EXPECT_EQ(out, guid);
  // Re-recording the same (sid, seq) with the same guid is idempotent...
  dedup.Record(1, 1, guid);
  EXPECT_EQ(dedup.duplicates(), 0u);
  // ...a different guid means a duplicate commit slipped past dedup.
  dedup.Record(1, 1, GlobalStateId{1, 9});
  EXPECT_EQ(dedup.duplicates(), 1u);
  ASSERT_TRUE(dedup.Lookup(1, 1, &out));
  EXPECT_EQ(out, guid);  // the first commit wins
  // Session id 0 ("no session") is never recorded.
  dedup.Record(0, 1, guid);
  EXPECT_FALSE(dedup.Lookup(0, 1, &out));
}

TEST(SessionDedupTest, PerSessionWindowEvictsLowestSeq) {
  SessionDedup::Options opt;
  opt.per_session = 4;
  SessionDedup dedup(opt);
  for (uint64_t seq = 1; seq <= 6; seq++) {
    dedup.Record(1, seq, GlobalStateId{0, seq});
  }
  GlobalStateId out;
  // The two lowest sequences fell out of the window; a client only ever
  // retries its most recent writes.
  EXPECT_FALSE(dedup.Lookup(1, 1, &out));
  EXPECT_FALSE(dedup.Lookup(1, 2, &out));
  EXPECT_TRUE(dedup.Lookup(1, 3, &out));
  EXPECT_TRUE(dedup.Lookup(1, 6, &out));
  EXPECT_EQ(dedup.entry_count(), 4u);
}

TEST(SessionDedupTest, SessionLruEviction) {
  SessionDedup::Options opt;
  opt.max_sessions = 2;
  SessionDedup dedup(opt);
  dedup.Record(1, 1, GlobalStateId{0, 1});
  dedup.Record(2, 1, GlobalStateId{0, 2});
  GlobalStateId out;
  // Touch session 1 so session 2 is the LRU victim.
  EXPECT_TRUE(dedup.Lookup(1, 1, &out));
  dedup.Record(3, 1, GlobalStateId{0, 3});
  EXPECT_EQ(dedup.session_count(), 2u);
  EXPECT_TRUE(dedup.Lookup(1, 1, &out));
  EXPECT_FALSE(dedup.Lookup(2, 1, &out));
  EXPECT_TRUE(dedup.Lookup(3, 1, &out));
}

TEST(SessionDedupTest, MetricsRegistered) {
  obs::MetricsRegistry registry;
  SessionDedup dedup;
  dedup.RegisterMetrics(&registry, &dedup);
  dedup.Record(1, 1, GlobalStateId{0, 1});
  GlobalStateId out;
  dedup.Lookup(1, 1, &out);
  dedup.IncrementRejected();
  bool saw_hits = false, saw_rejected = false, saw_entries = false;
  for (const obs::Sample& s : registry.Collect()) {
    if (s.name == "tardis_session_dedup_hits") saw_hits = s.counter >= 1;
    if (s.name == "tardis_session_header_rejected") {
      saw_rejected = s.counter >= 1;
    }
    if (s.name == "tardis_session_dedup_entries") saw_entries = s.gauge >= 1;
  }
  EXPECT_TRUE(saw_hits);
  EXPECT_TRUE(saw_rejected);
  EXPECT_TRUE(saw_entries);
  registry.DropCallbacks(&dedup);
}

TEST(SessionCommitLogTest, EntryRoundTripWithSessionTag) {
  CommitLogEntry entry;
  entry.id = 4;
  entry.guid = GlobalStateId{1, 4};
  entry.parent_ids = {3};
  entry.write_keys = {"k"};
  entry.session_id = 0x1234;
  entry.session_seq = 9;
  const std::string blob = CommitLog::Serialize(entry);
  CommitLogEntry out;
  ASSERT_TRUE(CommitLog::Deserialize(Slice(blob), &out));
  EXPECT_EQ(out.id, 4u);
  EXPECT_EQ(out.session_id, 0x1234u);
  EXPECT_EQ(out.session_seq, 9u);
}

TEST(SessionCommitLogTest, PreSessionEntriesDecodeUntagged) {
  // An entry serialized without a session tag (the pre-session format:
  // no trailing varints at all) must decode with session fields 0/0.
  CommitLogEntry entry;
  entry.id = 4;
  entry.guid = GlobalStateId{1, 4};
  entry.parent_ids = {3};
  entry.write_keys = {"k"};
  const std::string blob = CommitLog::Serialize(entry);
  CommitLogEntry out;
  ASSERT_TRUE(CommitLog::Deserialize(Slice(blob), &out));
  EXPECT_EQ(out.session_id, 0u);
  EXPECT_EQ(out.session_seq, 0u);
}

class SessionStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "tardis_session_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<TardisStore> OpenStore() {
    TardisOptions options;
    options.dir = dir_;
    options.backend = RecordBackend::kBTree;
    options.flush_mode = Wal::FlushMode::kSync;
    auto store = TardisStore::Open(options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  std::string dir_;
};

TEST_F(SessionStoreTest, TaggedCommitFeedsDedup) {
  auto store = OpenStore();
  auto session = store->CreateSession();
  auto txn = store->Begin(session.get());
  ASSERT_TRUE(txn.ok());
  (*txn)->SetSessionTag(77, 1);
  ASSERT_TRUE((*txn)->Put("k", "v").ok());
  ASSERT_TRUE((*txn)->Commit().ok());
  GlobalStateId guid;
  ASSERT_TRUE(store->session_dedup()->Lookup(77, 1, &guid));
  EXPECT_EQ(guid, session->last_commit()->guid());
}

TEST_F(SessionStoreTest, DedupSurvivesCrashRestart) {
  GlobalStateId original;
  {
    auto store = OpenStore();
    auto session = store->CreateSession();
    auto txn = store->Begin(session.get());
    ASSERT_TRUE(txn.ok());
    (*txn)->SetSessionTag(77, 1);
    ASSERT_TRUE((*txn)->Put("k", "v").ok());
    ASSERT_TRUE((*txn)->Commit().ok());
    original = session->last_commit()->guid();
    ASSERT_TRUE(store->Flush().ok());
    // The store drops here without any graceful teardown beyond the
    // flushed commit log — the crash model the dedup table must survive.
  }
  auto store = OpenStore();
  GlobalStateId replayed;
  ASSERT_TRUE(store->session_dedup()->Lookup(77, 1, &replayed))
      << "commit-log replay did not rebuild the dedup table";
  EXPECT_EQ(replayed, original);
}

TEST_F(SessionStoreTest, UntaggedCommitsStayOutOfDedup) {
  auto store = OpenStore();
  auto session = store->CreateSession();
  auto txn = store->Begin(session.get());
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*txn)->Put("k", "v").ok());
  ASSERT_TRUE((*txn)->Commit().ok());
  EXPECT_EQ(store->session_dedup()->entry_count(), 0u);
}

}  // namespace
}  // namespace tardis
