// Tests of the benchmark's own arithmetic in C++: due-time latency and
// generator lateness, self time from nested spans, and the provenance
// checker (the percentile rule is tested in test_percentiles.py). Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.

#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "values.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      failures++;                                                      \
    }                                                                  \
  } while (0)

void TestOpenLoopTiming() {
  const int64_t ms = 1'000'000;
  // 1,000 req/s: request i is due at i ms.
  EXPECT(DueTimeNs(0, 5, 1000) == 5 * ms);
  EXPECT(DueTimeNs(7, 0, 1000) == 7);
  // Request 0 stalls for 30 ms; request 1, due at 1 ms, can only be sent
  // at 30 ms. Its latency counts the stall it waited behind, and the
  // generator was 29 ms late sending it.
  const OpenLoopTiming r0 = TimeFromDue(0, 0, 30 * ms);
  EXPECT(r0.latency_ns == 30 * ms && r0.late_ns == 0);
  const OpenLoopTiming r1 = TimeFromDue(1 * ms, 30 * ms, 31 * ms);
  EXPECT(r1.latency_ns == 30 * ms);
  EXPECT(r1.late_ns == 29 * ms);
  // Sent early (never happens, but lateness is never negative).
  EXPECT(TimeFromDue(10 * ms, 9 * ms, 12 * ms).late_ns == 0);
}

void TestSelfTime() {
  std::vector<SpanRecord> spans;
  auto add = [&](const char* name, uint64_t id, uint64_t parent, int64_t b,
                 int64_t e) {
    SpanRecord r;
    r.name = name;
    r.id = id;
    r.parent = parent;
    r.start_ns = b;
    r.end_ns = e;
    spans.push_back(r);
  };
  // txn [0,100]; children overlap ([10,30] and [20,50] cover [10,50]) and
  // one runs past its parent ([90,120] counts only up to 100).
  add("txn", 1, 0, 0, 100);
  add("get", 2, 1, 10, 30);
  add("get", 3, 1, 20, 50);
  add("commit", 4, 1, 90, 120);
  // A grandchild reduces only its own parent's self time.
  add("select", 5, 4, 95, 105);
  const auto st = SelfTimes(spans);
  EXPECT(st.at("txn").count == 1);
  EXPECT(st.at("txn").total_ns == 100);
  EXPECT(st.at("txn").self_ns == 100 - 40 - 10);
  EXPECT(st.at("get").count == 2 && st.at("get").self_ns == 50);
  EXPECT(st.at("commit").self_ns == 30 - 10);
  EXPECT(st.at("select").self_ns == 10);

  // Spans recorded through ScopedSpan nest through their parent ids.
  SpanRecorder rec(true);
  SpanBuffer* buf = rec.NewBuffer();
  {
    ScopedSpan root(buf, "root", 9);
    ScopedSpan child(buf, "child", 9, root.id());
  }
  const std::vector<SpanRecord> got = rec.All();
  EXPECT(got.size() == 2);
  EXPECT(got.size() == 2 && got[0].parent == got[1].id && got[0].txn == 9);
  SpanRecorder off(false);
  EXPECT(off.NewBuffer() == nullptr);
  EXPECT(ChromeTraceJson(got, 1).find("\"child\"") != std::string::npos);
  EXPECT(ChromeTraceJson(got, 1).find("\"root\"") == std::string::npos);
}

void TestProvenance() {
  Provenance prov(2, 10);
  std::string why;
  EXPECT(prov.CheckRead(3, prov.PreloadValue(3), &why));
  uint64_t idx = 0;
  const std::string v = prov.IssueWrite(1, 3, &idx);
  EXPECT(prov.CheckRead(3, v, &why));
  // The same bytes read back under another key.
  EXPECT(!prov.CheckRead(4, v, &why));
  EXPECT(!prov.CheckRead(4, prov.PreloadValue(3), &why));
  // A planted foreign value: well-formed, but no write ever produced it.
  EXPECT(!prov.CheckRead(3, EncodeValue(ValueId{999, 1, idx, 3}), &why));
  EXPECT(!prov.CheckRead(3, EncodeValue(ValueId{2, 1, idx + 5, 3}), &why));
  EXPECT(!prov.CheckRead(3, EncodeValue(ValueId{1, 2, idx, 3}), &why));
  EXPECT(!prov.CheckRead(3, EncodeValue(ValueId{1, 7, idx, 3}), &why));
  EXPECT(!prov.CheckRead(3, EncodeValue(ValueId{0, 0, 4, 3}), &why));
  EXPECT(why.find("preload") != std::string::npos);
  // Damaged or trailing bytes.
  EXPECT(!prov.CheckRead(3, "garbage", &why));
  EXPECT(!prov.CheckRead(3, v + "_", &why));
  EXPECT(!prov.CheckRead(3, "x" + v.substr(1), &why));
  // Final state of a merged store: only acknowledged writes may survive.
  EXPECT(!prov.CheckFinalAcked(3, v, &why));
  prov.Ack(1, idx, 100);
  EXPECT(prov.CheckFinalAcked(3, v, &why));
  EXPECT(prov.CheckFinalAcked(5, prov.PreloadValue(5), &why));

  // Real-time rule: once a later write was acknowledged, a value whose
  // write completed before that later write was issued is stale.
  uint64_t later = 0;
  const std::string v2 = prov.IssueWrite(2, 3, &later);
  prov.Ack(2, later, prov.log(2).Find(later)->issue_ns + 1);
  const std::vector<int64_t> latest = prov.LatestAckedIssue();
  EXPECT(latest[3] == prov.log(2).Find(later)->issue_ns);
  EXPECT(latest[4] == -1);
  EXPECT(prov.CheckFinalRealTime(3, v2, latest[3], &why));
  EXPECT(!prov.CheckFinalRealTime(3, v, latest[3], &why));
  EXPECT(!prov.CheckFinalRealTime(3, prov.PreloadValue(3), latest[3], &why));
  EXPECT(prov.CheckFinalRealTime(4, prov.PreloadValue(4), latest[4], &why));
  // An unacknowledged write may have landed: it is never stale.
  uint64_t lost = 0;
  const std::string v3 = prov.IssueWrite(1, 3, &lost);
  EXPECT(prov.CheckFinalRealTime(3, v3, latest[3], &why));

  uint64_t k = 0;
  EXPECT(ParseKey(KeyName(1234), &k) && k == 1234);
  EXPECT(!ParseKey("k12", &k) && !ParseKey("x00000001", &k));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestOpenLoopTiming();
  perfbench::TestSelfTime();
  perfbench::TestProvenance();
  if (perfbench::failures != 0) {
    fprintf(stderr, "perfbench selftest: %d failure(s)\n", perfbench::failures);
    return 1;
  }
  printf("perfbench selftest: all checks passed\n");
  return 0;
}
