// Unit tests for src/util: Status, Slice, coding, CRC-32C, histogram,
// PRNG and Zipfian generators, port parsing and the TCP listen helper.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/backoff.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/zipf.h"

namespace tardis {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndPredicates) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Conflict().IsConflict());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_FALSE(Status::NotFound().ok());
}

TEST(StatusTest, MessagePropagates) {
  Status s = Status::IOError("disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
  EXPECT_EQ(s.message(), "disk on fire");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = [] { return Status::Busy("nope"); };
  auto wrapper = [&]() -> Status {
    TARDIS_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsBusy());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.ToString(), "hello");
  EXPECT_TRUE(Slice().empty());
}

TEST(SliceTest, CompareOrdersLexicographically) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix orders first
  EXPECT_TRUE(Slice("a") < Slice("b"));
}

TEST(SliceTest, EqualityAndPrefix) {
  EXPECT_EQ(Slice("xyz"), Slice(std::string("xyz")));
  EXPECT_NE(Slice("xyz"), Slice("xy"));
  EXPECT_TRUE(Slice("xyz").starts_with("xy"));
  EXPECT_FALSE(Slice("xyz").starts_with("yz"));
}

TEST(SliceTest, RemovePrefix) {
  Slice s("abcdef");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "cdef");
}

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xDEADBEEFu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0x0123456789ABCDEFull);
}

TEST(CodingTest, VarintRoundTripSweep) {
  // Boundary values around every 7-bit threshold.
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ull << 32) - 1, 1ull << 32,
                                  ~0ull, ~0ull - 1};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    Slice in(buf);
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(&in, &decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  Slice in(buf.data(), buf.size() - 1);
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(&in, &decoded));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("payload"));
  PutLengthPrefixed(&buf, Slice(""));
  PutLengthPrefixed(&buf, Slice(std::string(1000, 'x')));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a.ToString(), "payload");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, LengthPrefixedTruncatedFails) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("payload"));
  Slice in(buf.data(), buf.size() - 2);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(Crc32c("", 0), 0u); }

TEST(Crc32Test, SensitiveToCorruption) {
  std::string data = "the quick brown fox";
  const uint32_t crc = Crc32c(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

TEST(Crc32Test, MaskRoundTrip) {
  const uint32_t crc = Crc32c("abc", 3);
  EXPECT_NE(MaskCrc(crc), crc);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(99), b(99);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformStaysInRange) {
  Random r(1);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.Uniform(10), 10u);
    const uint64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random r(2);
  for (int i = 0; i < 1000; i++) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliRoughlyCalibrated) {
  Random r(3);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) hits += r.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(ZipfTest, StaysInRange) {
  ZipfianGenerator z(1000, 0.99, 5);
  for (int i = 0; i < 10000; i++) EXPECT_LT(z.Next(), 1000u);
}

TEST(ZipfTest, SkewsTowardHotItems) {
  ZipfianGenerator z(1000, 0.99, 5);
  std::map<uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; i++) counts[z.Next()]++;
  // Item 0 should dominate: with theta=0.99 over 1000 items it draws
  // roughly 13% of the mass.
  EXPECT_GT(counts[0], n / 20);
  // And the top-10 items together well over a third.
  int top10 = 0;
  for (uint64_t i = 0; i < 10; i++) top10 += counts[i];
  EXPECT_GT(top10, n / 3);
}

TEST(ZipfTest, ScrambledSpreadsHotKeys) {
  ScrambledZipfianGenerator z(1000, 0.99, 5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; i++) counts[z.Next()]++;
  // The hottest item should no longer be item 0 specifically, but some
  // hash-scattered position; distribution mass is preserved.
  auto hottest = std::max_element(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_GT(hottest->second, 50000 / 20);
}

TEST(HistogramTest, EmptySafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.99), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; v++) h.Add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(0.5), 50, 10);
  EXPECT_NEAR(h.Percentile(0.99), 99, 10);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 50; i++) a.Add(10);
  for (int i = 0; i < 50; i++) b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_NEAR(a.mean(), 505.0, 0.01);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  h.Add(8'500'000'000ull);  // beyond the last finite bucket boundary
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 8'500'000'000ull);
}

TEST(BackoffTest, DeterministicDoublingWithoutJitter) {
  Backoff b(20, 2000);
  uint64_t now = 1000;
  const uint64_t expect[] = {20, 40, 80, 160, 320, 640, 1280, 2000, 2000};
  for (uint64_t e : expect) {
    b.Fail(now);
    EXPECT_EQ(b.delay_ms(), e);
    EXPECT_FALSE(b.Due(now));
    EXPECT_EQ(b.RemainingMs(now), e);
    EXPECT_TRUE(b.Due(now + e));
    now += e;
  }
  b.Reset();
  b.Fail(now);
  EXPECT_EQ(b.delay_ms(), 20u);
}

TEST(BackoffTest, JitterStaysWithinBounds) {
  // Decorrelated jitter: every delay in [initial, max], and the window
  // for step n+1 is [initial, min(max, 3 * delay_n)].
  Backoff b(20, 2000);
  b.EnableJitter(/*seed=*/42);
  uint64_t now = 0;
  uint64_t prev = 0;
  for (int i = 0; i < 200; i++) {
    b.Fail(now);
    const uint64_t d = b.delay_ms();
    EXPECT_GE(d, 20u);
    EXPECT_LE(d, 2000u);
    if (i == 0) {
      EXPECT_EQ(d, 20u);  // first failure always starts at initial
    } else {
      EXPECT_LE(d, std::min<uint64_t>(2000, prev * 3));
    }
    EXPECT_EQ(b.RemainingMs(now), d);
    prev = d;
    now += d;
  }
}

TEST(BackoffTest, JitterIsSeededAndDeterministic) {
  Backoff a(10, 5000), b(10, 5000), c(10, 5000);
  a.EnableJitter(7);
  b.EnableJitter(7);
  c.EnableJitter(8);
  std::vector<uint64_t> da, db, dc;
  for (int i = 0; i < 50; i++) {
    a.Fail(0);
    b.Fail(0);
    c.Fail(0);
    da.push_back(a.delay_ms());
    db.push_back(b.delay_ms());
    dc.push_back(c.delay_ms());
  }
  EXPECT_EQ(da, db);  // same seed, same schedule
  EXPECT_NE(da, dc);  // different seed decorrelates the schedule
}

TEST(BackoffTest, JitterDegenerateRanges) {
  // initial == max pins every delay; a tiny max still bounds the draw.
  Backoff pinned(100, 100);
  pinned.EnableJitter(3);
  for (int i = 0; i < 10; i++) {
    pinned.Fail(0);
    EXPECT_EQ(pinned.delay_ms(), 100u);
  }
  Backoff zero(0, 5);
  zero.EnableJitter(3);
  for (int i = 0; i < 10; i++) {
    zero.Fail(0);
    EXPECT_LE(zero.delay_ms(), 5u);
  }
}

TEST(ParsePortTest, AcceptsOnlyDecimalPortsInRange) {
  uint16_t port = 0;
  EXPECT_TRUE(ParsePort("1", &port));
  EXPECT_EQ(port, 1);
  EXPECT_TRUE(ParsePort("65535", &port));
  EXPECT_EQ(port, 65535);
  EXPECT_TRUE(ParsePort("00080", &port));
  EXPECT_EQ(port, 80);
  // Values the old atoi+cast silently wrapped or truncated; a rejected
  // value leaves the port as it was.
  for (const char* bad : {"70000", "65536", "-1", "7000abc", "0", "", "+80",
                          " 80", "123456", "80 ", "0x50", "8.0",
                          "18446744073709551696"}) {
    EXPECT_FALSE(ParsePort(bad, &port)) << bad;
    EXPECT_EQ(port, 80) << bad;
  }
  // ParsePort is ParseUint's 1..65535 case; the general parser keeps the
  // same rules for every numeric flag, overflow included.
  uint64_t v = 7;
  EXPECT_TRUE(ParseUint("0", 0, 10, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint("5", 5, 5, &v));
  EXPECT_EQ(v, 5u);
  EXPECT_TRUE(ParseUint("18446744073709551615", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  const std::pair<const char*, uint64_t> kBad[] = {
      {"18446744073709551616", UINT64_MAX},  // overflows 64 bits
      {"99999999999999999999", UINT64_MAX},
      {"11", 10}, {"4", 10},  // above / below [5, hi]
      {"abc", UINT64_MAX}, {"12x", UINT64_MAX},
      {"-5", UINT64_MAX}, {"", UINT64_MAX}};
  for (const auto& [bad, hi] : kBad) {
    v = 7;
    EXPECT_FALSE(ParseUint(bad, 5, hi, &v)) << bad;
    EXPECT_EQ(v, 7u) << bad;
  }
}

TEST(ListenTcpTest, BindsEphemeralPortAndRejectsATakenOne) {
  auto first = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GE(first->fd, 0);
  EXPECT_NE(first->port, 0);
  // SO_REUSEADDR does not let a second listener share a listening port.
  auto second = ListenTcp("127.0.0.1", first->port);
  EXPECT_FALSE(second.ok());
  close(first->fd);
}

}  // namespace
}  // namespace tardis
