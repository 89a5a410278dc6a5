// The `branch-merge` workload: four client sessions drive the public
// TardisStore/Transaction API of an in-process `mem` store directly, with
// no injected latency. Keys are scrambled Zipfian (θ=0.99) over 10k keys;
// every transaction reads 3 keys and writes the same 3. Each session
// merges the branches (last writer wins, as `tardisd merge lww` does)
// after every 64 of its own commits whenever the DAG has more than one
// leaf, and places a GC ceiling every 1,000 of its commits; a GC thread
// runs every 100 ms (paper §7.1.5).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/constraints.h"
#include "core/tardis_store.h"
#include "obs/metrics.h"
#include "spans.h"
#include "stats.h"
#include "util/zipf.h"
#include "values.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tardis::ClientSession;
using tardis::RecordBackend;
using tardis::StateId;
using tardis::Status;
using tardis::TardisStore;

constexpr RecordBackend kBackend = RecordBackend::kMem;
constexpr uint64_t kKeys = 10'000;
constexpr double kZipfTheta = 0.99;
constexpr uint32_t kSessions = 4;
constexpr uint64_t kMergeEvery = 64;
constexpr uint64_t kCeilingEvery = 1000;
constexpr uint64_t kGcIntervalMs = 100;
constexpr int kTxnKeys = 3;  // 3 reads + 3 writes of the same keys
constexpr uint64_t kPreloadBatch = 1000;
constexpr int kFinalMergeRounds = 200;
// Set-ups per trial; setup_s is the mean over all set-ups of a run.
constexpr int kSetups = 7;

// ---- registry snapshots ---------------------------------------------------

struct RegSnap {
  std::vector<tardis::obs::Sample> samples;
};

RegSnap Snap(const TardisStore& store) {
  return RegSnap{store.metrics()->Collect()};
}

bool HasLabel(const tardis::obs::Sample& s, const char* k, const char* v) {
  if (k == nullptr) return true;
  for (const auto& [lk, lv] : s.labels) {
    if (lk == k && lv == v) return true;
  }
  return false;
}

/// Sum over every label set of a counter (or callback counter).
double CounterSum(const RegSnap& r, const char* name) {
  double sum = 0;
  for (const auto& s : r.samples) {
    if (s.name == name && s.kind == tardis::obs::MetricKind::kCounter) {
      sum += static_cast<double>(s.counter);
    }
  }
  return sum;
}

/// Histogram count and sum over label sets matching (label_k, label_v).
void HistTotals(const RegSnap& r, const char* name, const char* label_k,
                const char* label_v, double* count, double* sum) {
  *count = 0;
  *sum = 0;
  for (const auto& s : r.samples) {
    if (s.name == name && s.kind == tardis::obs::MetricKind::kHistogram &&
        HasLabel(s, label_k, label_v)) {
      *count += static_cast<double>(s.hist.count());
      *sum += s.hist.mean() * static_cast<double>(s.hist.count());
    }
  }
}

/// Mean of the observations a histogram gained between two snapshots.
double HistDeltaMean(const RegSnap& a, const RegSnap& b, const char* name,
                     const char* label_k, const char* label_v,
                     uint64_t* count) {
  double ca, sa, cb, sb;
  HistTotals(a, name, label_k, label_v, &ca, &sa);
  HistTotals(b, name, label_k, label_v, &cb, &sb);
  *count = static_cast<uint64_t>(cb - ca);
  return cb > ca ? (sb - sa) / (cb - ca) : 0;
}

// ---- set-up -----------------------------------------------------------------

std::unique_ptr<TardisStore> OpenStore() {
  tardis::TardisOptions options;
  options.backend = kBackend;
  auto store = TardisStore::Open(options);
  if (!store.ok()) {
    throw std::runtime_error("open store: " + store.status().ToString());
  }
  return std::move(*store);
}

/// Opens a store and preloads every key; returns seconds taken.
double SetupOnce(const Provenance& prov, std::unique_ptr<TardisStore>* out) {
  const int64_t t0 = NowNs();
  std::unique_ptr<TardisStore> store = OpenStore();
  auto loader = store->CreateSession();
  for (uint64_t base = 0; base < kKeys; base += kPreloadBatch) {
    auto txn = store->Begin(loader.get(), tardis::AncestorBegin());
    if (!txn.ok()) throw std::runtime_error("preload begin failed");
    const uint64_t end = std::min(kKeys, base + kPreloadBatch);
    for (uint64_t k = base; k < end; k++) {
      if (!(*txn)->Put(KeyName(k), prov.PreloadValue(k)).ok()) {
        throw std::runtime_error("preload put failed");
      }
    }
    const Status s = (*txn)->Commit(tardis::SerializabilityEnd());
    if (!s.ok()) throw std::runtime_error("preload commit: " + s.ToString());
  }
  const double secs = static_cast<double>(NowNs() - t0) / 1e9;
  *out = std::move(store);
  return secs;
}

// ---- the measured loop ------------------------------------------------------

/// What one session saw.
struct SessionStats {
  std::vector<double> txn_us, merge_us;
  uint64_t commits = 0, merges = 0;
  uint64_t attempted = 0, failed = 0;
  uint64_t merge_keys = 0, merge_parents = 0;
  std::vector<std::string> errors;  // wrong answers (correctness)
  std::string first_failure;        // the first failed operation, if any

  void Fail(const std::string& what) {
    if (failed++ == 0) first_failure = what;
  }
  void Wrong(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// LWW merge of every branch tip, the same steps as tardisd's
/// `merge lww`: BeginMerge → FindForkPoints/FindConflictWrites →
/// GetForId per parent → Put the largest value → Commit. Returns true
/// when a merge transaction committed.
bool MergeLww(TardisStore* store, ClientSession* session,
              const Provenance& prov, SpanBuffer* sb, uint64_t txn_id,
              SessionStats* st) {
  const int64_t t0 = NowNs();
  ScopedSpan root(sb, "merge", txn_id);
  tardis::TxnPtr m;
  {
    ScopedSpan span(sb, "core.merge.begin", txn_id, root.id());
    auto r = store->BeginMerge(session);
    if (!r.ok()) {
      st->attempted++;
      st->Fail("begin merge: " + r.status().ToString());
      return false;
    }
    m = std::move(*r);
  }
  const std::vector<StateId> parents = m->parents();
  if (parents.size() < 2) {
    m->Abort();
    return false;
  }
  st->attempted++;
  std::vector<StateId> forks;
  {
    ScopedSpan span(sb, "core.merge.forkpoints", txn_id, root.id());
    auto r = m->FindForkPoints(parents);
    if (!r.ok()) {
      m->Abort();
      st->Fail("fork points: " + r.status().ToString());
      return false;
    }
    forks = std::move(*r);
  }
  std::vector<std::string> conflicts;
  {
    ScopedSpan span(sb, "core.merge.conflicts", txn_id, root.id());
    auto r = m->FindConflictWrites(parents);
    if (!r.ok()) {
      m->Abort();
      st->Fail("conflict writes: " + r.status().ToString());
      return false;
    }
    conflicts = std::move(*r);
  }
  {
    ScopedSpan span(sb, "core.merge.resolve", txn_id, root.id());
    for (const std::string& key : conflicts) {
      uint64_t k = 0;
      if (!ParseKey(key, &k) || k >= prov.keys()) {
        st->Wrong("merge saw a conflict on unknown key '" + key + "'");
        continue;
      }
      std::string merged;
      for (StateId p : parents) {
        std::string bv;
        if (!m->GetForId(key, p, &bv).ok()) continue;
        std::string why;
        if (!prov.CheckRead(k, bv, &why)) st->Wrong("merge read: " + why);
        if (bv > merged) merged = bv;
      }
      if (merged.empty()) continue;
      if (!m->Put(key, merged).ok()) {
        m->Abort();
        st->Fail("merge put failed");
        return false;
      }
    }
  }
  Status s;
  {
    ScopedSpan span(sb, "core.merge.commit", txn_id, root.id());
    s = m->Commit();
  }
  if (!s.ok()) {
    st->Fail("merge commit: " + s.ToString());
    return false;
  }
  st->merges++;
  st->merge_keys += conflicts.size();
  st->merge_parents += parents.size();
  st->merge_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  return true;
}

struct Shared {
  TardisStore* store;
  Provenance* prov;
  uint64_t seed;
  int64_t end_ns;
};

void SessionLoop(const Shared& sh, uint32_t writer, SpanBuffer* sb,
                 SessionStats* out) {
  TardisStore* store = sh.store;
  Provenance& prov = *sh.prov;
  SessionStats& st = *out;
  auto session = store->CreateSession();
  tardis::ScrambledZipfianGenerator zipf(kKeys, kZipfTheta,
                                         sh.seed * 104729 + writer);
  const auto begin_c = tardis::AncestorBegin();
  const auto end_c = tardis::SerializabilityEnd();
  uint64_t txn_seq = 0;
  uint64_t keys[kTxnKeys];
  std::string value;

  while (NowNs() < sh.end_ns) {
    const uint64_t txn_id = (static_cast<uint64_t>(writer) << 48) | ++txn_seq;
    for (int i = 0; i < kTxnKeys; i++) {
      bool dup;
      do {
        keys[i] = zipf.Next();
        dup = std::find(keys, keys + i, keys[i]) != keys + i;
      } while (dup);
    }

    st.attempted++;
    const int64_t t0 = NowNs();
    bool ok = true;
    uint64_t widx[kTxnKeys];
    {
      ScopedSpan root(sb, "txn", txn_id);
      tardis::TxnPtr txn;
      {
        ScopedSpan span(sb, "core.begin", txn_id, root.id());
        auto r = store->Begin(session.get(), begin_c);
        if (r.ok()) {
          txn = std::move(*r);
        } else {
          st.Fail("begin: " + r.status().ToString());
          ok = false;
        }
      }
      for (int i = 0; ok && i < kTxnKeys; i++) {
        const std::string key = KeyName(keys[i]);
        Status s;
        {
          ScopedSpan span(sb, "core.get", txn_id, root.id());
          s = txn->Get(key, &value);
        }
        if (s.IsNotFound()) {
          st.Wrong("preloaded " + key + " not found");
          ok = false;
        } else if (!s.ok()) {
          st.Fail("get: " + s.ToString());
          ok = false;
        } else {
          std::string why;
          if (!prov.CheckRead(keys[i], value, &why)) st.Wrong("read: " + why);
        }
      }
      for (int i = 0; ok && i < kTxnKeys; i++) {
        const std::string v = prov.IssueWrite(writer, keys[i], &widx[i]);
        ScopedSpan span(sb, "core.put", txn_id, root.id());
        const Status s = txn->Put(KeyName(keys[i]), v);
        if (!s.ok()) {
          st.Fail("put: " + s.ToString());
          ok = false;
        }
      }
      if (ok) {
        Status s;
        {
          ScopedSpan span(sb, "core.commit", txn_id, root.id());
          s = txn->Commit(end_c);
        }
        if (!s.ok()) {
          st.Fail("commit: " + s.ToString());
          ok = false;
        }
      } else if (txn != nullptr) {
        txn->Abort();
      }
    }
    if (!ok) continue;
    const int64_t t1 = NowNs();
    for (int i = 0; i < kTxnKeys; i++) prov.Ack(writer, widx[i], t1);
    st.commits++;
    st.txn_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (st.commits % kMergeEvery == 0 && store->dag()->leaf_count() > 1) {
      MergeLww(store, session.get(), prov, sb, txn_id | (1ull << 47), &st);
    }
    if (st.commits % kCeilingEvery == 0) {
      ScopedSpan span(sb, "core.ceiling", txn_id);
      store->PlaceCeiling(session.get());
    }
  }
}

SessionStats Combine(const std::vector<SessionStats>& per_session) {
  SessionStats all;
  for (const SessionStats& s : per_session) {
    all.txn_us.insert(all.txn_us.end(), s.txn_us.begin(), s.txn_us.end());
    all.merge_us.insert(all.merge_us.end(), s.merge_us.begin(),
                        s.merge_us.end());
    all.commits += s.commits;
    all.merges += s.merges;
    all.attempted += s.attempted;
    all.failed += s.failed;
    all.merge_keys += s.merge_keys;
    all.merge_parents += s.merge_parents;
    all.errors.insert(all.errors.end(), s.errors.begin(), s.errors.end());
    if (all.first_failure.empty()) all.first_failure = s.first_failure;
  }
  return all;
}

double MeanSpan(const std::map<std::string, SelfTime>& selfs, const char* name,
                uint64_t* count) {
  auto it = selfs.find(name);
  if (it == selfs.end() || it->second.count == 0) {
    *count = 0;
    return 0;
  }
  *count = it->second.count;
  return static_cast<double>(it->second.total_ns) / 1e3 /
         static_cast<double>(it->second.count);
}

}  // namespace

void RunBranchMerge(const RunOptions& opts, Result* result) {
  result->SetParam("backend", tardis::RecordBackendName(kBackend));
  result->SetParam("keys", std::to_string(kKeys));
  result->SetParam("key_dist", "scrambled-zipf-0.99");
  result->SetParam("sessions", std::to_string(kSessions));
  result->SetParam("merge_every", std::to_string(kMergeEvery));
  result->SetParam("ceiling_every", std::to_string(kCeilingEvery));
  result->SetParam("gc_interval_ms", std::to_string(kGcIntervalMs));

  Provenance prov(kSessions, kKeys);
  std::unique_ptr<TardisStore> store;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; i++) {
    store.reset();
    setup_s.push_back(SetupOnce(prov, &store));
  }
  result->AddSamples("setup", std::move(setup_s));
  result->SetParam("setups", std::to_string(kSetups));

  const RegSnap before = Snap(*store);
  store->StartGcThread(kGcIntervalMs);

  SpanRecorder recorder(opts.trace);
  Shared sh;
  sh.store = store.get();
  sh.prov = &prov;
  sh.seed = opts.seed;
  const int64_t start_ns = NowNs();
  sh.end_ns = start_ns + static_cast<int64_t>(opts.seconds * 1e9);

  std::vector<SessionStats> stats(kSessions);
  std::vector<std::thread> threads;
  for (uint32_t w = 1; w <= kSessions; w++) {
    SpanBuffer* buf = recorder.NewBuffer();
    threads.emplace_back([&, w, buf] { SessionLoop(sh, w, buf, &stats[w - 1]); });
  }
  // The DAG's shape, sampled every 100 ms over the window.
  std::vector<double> dag_states, dag_leaves;
  while (NowNs() < sh.end_ns) {
    usleep(100'000);
    dag_states.push_back(static_cast<double>(store->dag()->state_count()));
    dag_leaves.push_back(static_cast<double>(store->dag()->leaf_count()));
  }
  for (auto& t : threads) t.join();
  const RegSnap after_load = Snap(*store);
  const double peak_rss = PeakRssMb();

  SessionStats st = Combine(stats);
  const double secs = static_cast<double>(sh.end_ns - start_ns) / 1e9;

  // ---- end of run: merge to one branch, then check every key ----------------
  store->StopGcThread();
  auto closer = store->CreateSession();
  SessionStats fin;
  for (int round = 0;
       round < kFinalMergeRounds && store->dag()->leaf_count() > 1; round++) {
    MergeLww(store.get(), closer.get(), prov, nullptr, 0, &fin);
  }
  if (store->dag()->leaf_count() != 1) {
    result->Error("run did not merge back to one branch: " +
                  std::to_string(store->dag()->leaf_count()) + " leaves");
  }
  {
    auto reader = store->CreateSession();
    auto txn = store->Begin(reader.get(), tardis::AncestorBegin());
    if (!txn.ok()) {
      result->Error("final read begin: " + txn.status().ToString());
    } else {
      std::string v, why;
      for (uint64_t k = 0; k < kKeys; k++) {
        const Status s = (*txn)->Get(KeyName(k), &v);
        if (!s.ok()) {
          result->Error("final read of " + KeyName(k) + ": " + s.ToString());
        } else if (!prov.CheckFinalAcked(k, v, &why)) {
          result->Error("final state: " + why);
        }
      }
      (*txn)->Commit();
    }
  }
  const RegSnap end = Snap(*store);
  const uint64_t bench_commits = st.commits + st.merges + fin.merges;
  const double store_commits = CounterSum(end, "tardis_txn_commits_total") -
                               CounterSum(before, "tardis_txn_commits_total");
  if (static_cast<double>(bench_commits) != store_commits) {
    result->Error("bench counted " + std::to_string(bench_commits) +
                  " commits + merges, tardis_txn_commits_total moved by " +
                  std::to_string(static_cast<uint64_t>(store_commits)));
  }
  for (SessionStats* p : {&st, &fin}) {
    for (const std::string& e : p->errors) result->Error(e);
    if (!p->first_failure.empty()) {
      fprintf(stderr, "perfbench: first failed operation: %s\n",
              p->first_failure.c_str());
    }
  }
  result->attempted = st.attempted + fin.attempted;
  result->failed = st.failed + fin.failed;
  result->SetParam("final_merges", std::to_string(fin.merges));

  result->Set("txn_s", static_cast<double>(st.commits) / secs, "1/s",
              st.commits);
  result->AddSamples("txn", st.txn_us);
  result->AddSamples("write", std::move(st.txn_us));
  result->AddSamples("merge", std::move(st.merge_us));
  result->Set("failed_frac",
              st.attempted ? static_cast<double>(st.failed) / st.attempted : 0,
              "1", st.attempted);
  result->Set("peak_rss_mb", peak_rss, "MiB", 1);
  if (!opts.trace) return;

  // ---- per-layer metrics, over the whole traced window ----------------------
  const std::vector<SpanRecord> spans = recorder.All();
  const auto selfs = SelfTimes(spans);
  uint64_t n = 0;
  for (const char* name :
       {"core.begin", "core.get", "core.put", "core.commit", "core.ceiling",
        "core.merge.begin", "core.merge.forkpoints", "core.merge.conflicts",
        "core.merge.resolve", "core.merge.commit"}) {
    const double mean = MeanSpan(selfs, name, &n);
    result->Set(std::string(name) + "_us", mean, "us", n);
  }
  {
    std::vector<double> commit_us;
    for (const SpanRecord& s : spans) {
      if (std::string(s.name) == "core.commit") {
        commit_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    result->AddSamples("core.commit", std::move(commit_us));
  }
  {
    auto it = selfs.find("txn");
    const double self = it == selfs.end() || it->second.count == 0
                            ? 0
                            : static_cast<double>(it->second.self_ns) / 1e3 /
                                  static_cast<double>(it->second.count);
    result->Set("bench.txn_self_us", self,
                "us", it == selfs.end() ? 0 : it->second.count);
  }
  const double stage =
      HistDeltaMean(before, after_load, "tardis_stage_micros", "stage",
                    "commit_select", &n);
  result->Set("core.stage.commit_select_us", stage, "us", n);
  auto delta = [&](const char* name) {
    return CounterSum(after_load, name) - CounterSum(before, name);
  };
  const double commits = delta("tardis_txn_commits_total");
  result->Set("core.forks_per_1k",
              commits > 0 ? delta("tardis_txn_forks_total") * 1000 / commits : 0,
              "count", static_cast<uint64_t>(commits));
  result->Set("core.merge.keys",
              st.merges ? static_cast<double>(st.merge_keys) / st.merges : 0,
              "count", st.merges);
  result->Set("core.merge.parents",
              st.merges ? static_cast<double>(st.merge_parents) / st.merges : 0,
              "count", st.merges);
  result->Set("core.merge.per_s", static_cast<double>(st.merges) / secs, "1/s",
              st.merges);

  result->AddSamples("dag.states", std::move(dag_states));
  result->AddSamples("dag.leaves", std::move(dag_leaves));

  result->Set("gc.runs", delta("tardis_gc_runs_total"), "count", 1);
  const double gc_pass = HistDeltaMean(before, after_load,
                                       "tardis_gc_pass_duration_us", nullptr,
                                       nullptr, &n);
  result->Set("gc.pass_us", gc_pass, "us", n);
  result->Set("gc.states_deleted", delta("tardis_gc_states_deleted_total"),
              "count", 1);
  result->Set("gc.versions_pruned", delta("tardis_gc_versions_pruned_total"),
              "count", 1);

  result->Set("bench.spans_dropped", static_cast<double>(recorder.Dropped()),
              "count", spans.size());
  if (!opts.trace_path.empty()) {
    std::ofstream out(opts.trace_path);
    out << ChromeTraceJson(spans, kTraceFileSpans);
  }
}

}  // namespace perfbench
