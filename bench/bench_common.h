// Shared plumbing for the per-figure/table benchmark binaries: store
// factories for the three systems under comparison, run-length scaling,
// and table printing helpers.
//
// Every binary prints the rows/series of the paper's figure it reproduces
// plus a header describing the paper's qualitative result, so the output
// can be compared at a glance (see EXPERIMENTS.md).

#ifndef TARDIS_BENCH_BENCH_COMMON_H_
#define TARDIS_BENCH_BENCH_COMMON_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/occ_store.h"
#include "baseline/tardis_txkv.h"
#include "baseline/twopl_store.h"
#include "bench/driver.h"
#include "bench/latency_kv.h"
#include "bench/workload.h"
#include "core/tardis_store.h"

namespace tardis {
namespace bench {

/// Scales all run durations: TARDIS_BENCH_SCALE=5 makes every measurement
/// five times longer (the defaults are smoke-test sized for CI).
inline double BenchScale() {
  const char* env = getenv("TARDIS_BENCH_SCALE");
  return env != nullptr ? atof(env) : 1.0;
}

inline uint64_t ScaledMs(uint64_t base_ms) {
  return static_cast<uint64_t>(static_cast<double>(base_ms) * BenchScale());
}

/// The workload seed for this run. Every driver and workload generator
/// derives its per-client streams from it, so two runs with the same seed
/// issue the same transactions. Set with --seed=N (or TARDIS_BENCH_SEED);
/// PrintHeader echoes it so any run can be reproduced from its output.
inline uint64_t& BenchSeedRef() {
  static uint64_t seed = 1234;
  return seed;
}
inline uint64_t BenchSeed() { return BenchSeedRef(); }

/// The record backend every TARDiS store in this run opens with. Set with
/// --backend=mem|btree|trie (or TARDIS_BENCH_BACKEND); defaults to mem,
/// the paper's all-requests-cached configuration.
inline RecordBackend& BenchBackendRef() {
  static RecordBackend backend = RecordBackend::kMem;
  return backend;
}
inline RecordBackend BenchBackend() { return BenchBackendRef(); }
inline const char* BenchBackendName() {
  return RecordBackendName(BenchBackend());
}

/// A fresh directory for one store, inside a per-process scratch
/// directory under $TMPDIR that is removed at exit.
inline std::string FreshBenchDir() {
  static const std::string root = [] {
    const char* tmp = getenv("TMPDIR");
    std::string path =
        std::string(tmp != nullptr ? tmp : "/tmp") + "/tardis_bench_XXXXXX";
    if (mkdtemp(path.data()) == nullptr) {
      perror("mkdtemp");
      exit(2);
    }
    return path;
  }();
  [[maybe_unused]] static const bool cleanup =
      std::atexit([] { std::filesystem::remove_all(root); }) == 0;
  static std::atomic<int> next{0};
  return root + "/store" + std::to_string(next++);
}

/// TardisOptions preconfigured with the run's backend; drivers that build
/// stores by hand start from this instead of a default-constructed one.
/// A btree store gets a fresh data directory, since the B+Tree lives on
/// disk; the other backends stay fully in memory.
inline TardisOptions BenchStoreOptions() {
  TardisOptions options;
  options.backend = BenchBackend();
  if (options.backend == RecordBackend::kBTree) options.dir = FreshBenchDir();
  return options;
}

/// Parses a --backend / TARDIS_BENCH_BACKEND value; exits on a bad name.
inline RecordBackend ParseBenchBackend(const char* source, const char* name) {
  const std::optional<RecordBackend> parsed = ParseRecordBackend(name);
  if (!parsed) {
    fprintf(stderr, "unknown %s%s (want mem|btree|trie)\n", source, name);
    exit(2);
  }
  return *parsed;
}

/// Parses shared benchmark flags (--seed=N, --backend=mem|btree|trie).
/// Unrecognized arguments are left alone for binary-specific handling.
inline void ParseBenchFlags(int argc, char** argv) {
  if (const char* env = getenv("TARDIS_BENCH_SEED")) {
    BenchSeedRef() = strtoull(env, nullptr, 10);
  }
  if (const char* env = getenv("TARDIS_BENCH_BACKEND")) {
    BenchBackendRef() = ParseBenchBackend("TARDIS_BENCH_BACKEND=", env);
  }
  for (int i = 1; i < argc; i++) {
    if (strncmp(argv[i], "--seed=", 7) == 0) {
      BenchSeedRef() = strtoull(argv[i] + 7, nullptr, 10);
    } else if (strncmp(argv[i], "--backend=", 10) == 0) {
      BenchBackendRef() = ParseBenchBackend("--backend=", argv[i] + 10);
    }
  }
}

/// Client-server round trip of the paper's testbed (§7.1.1: "ping
/// latencies average 0.15 ms"). Injected per operation by LatencyKv; this
/// is what gives 2PL its lock queues and OCC its validation window — see
/// latency_kv.h.
constexpr uint64_t kTestbedRttUs = 150;

/// A system under test: the TxKV store plus the TARDiS internals when the
/// system is TARDiS (for GC wiring and DAG statistics).
struct SystemUnderTest {
  std::string name;
  std::unique_ptr<TxKvStore> store;
  std::unique_ptr<TardisStore> tardis;  // null for the baselines
  std::unique_ptr<TxKvStore> latency;   // LatencyKv wrapper when enabled

  TardisStore* tardis_store() { return tardis.get(); }

  /// Wraps the store with the per-op testbed RTT.
  void EnableRtt(uint64_t rtt_us = kTestbedRttUs) {
    latency = std::make_unique<LatencyKv>(store.get(), rtt_us);
  }
  /// The store benchmarks should talk to.
  TxKvStore* facade() { return latency ? latency.get() : store.get(); }
};

/// TARDiS with branch-on-conflict enabled (Ancestor begin, Serializability
/// end — the Fig. 10 configuration), background GC, ceilings every 1000
/// commits per client.
inline SystemUnderTest MakeTardisBranching(bool with_gc = true) {
  SystemUnderTest sut;
  sut.name = "TARDiS";
  // In-memory: the paper keeps all requests cached.
  TardisOptions options = BenchStoreOptions();
  auto store = TardisStore::Open(options);
  sut.tardis = std::move(*store);
  sut.store = std::make_unique<TardisTxKv>(
      sut.tardis.get(), AncestorBegin(), SerializabilityEnd(), "TARDiS",
      /*ceiling_interval=*/1000);
  if (with_gc) sut.tardis->StartGcThread(100);
  return sut;
}

/// TARDiS mimicking sequential storage (Ancestor begin, Serializability ∧
/// NoBranching end — the Fig. 9 configuration): conflicts abort instead of
/// branching.
inline SystemUnderTest MakeTardisSequential(bool with_gc = true) {
  SystemUnderTest sut;
  sut.name = "TARDiS";
  TardisOptions options = BenchStoreOptions();
  auto store = TardisStore::Open(options);
  sut.tardis = std::move(*store);
  sut.store = std::make_unique<TardisTxKv>(
      sut.tardis.get(), AncestorBegin(),
      AndEnd({SerializabilityEnd(), NoBranchingEnd()}), "TARDiS",
      /*ceiling_interval=*/1000);
  if (with_gc) sut.tardis->StartGcThread(100);
  return sut;
}

/// TARDiS with caller-chosen constraints (Fig. 11).
inline SystemUnderTest MakeTardisWith(BeginConstraintPtr begin,
                                      EndConstraintPtr end,
                                      const std::string& label) {
  SystemUnderTest sut;
  sut.name = label;
  TardisOptions options = BenchStoreOptions();
  auto store = TardisStore::Open(options);
  sut.tardis = std::move(*store);
  sut.store = std::make_unique<TardisTxKv>(sut.tardis.get(), std::move(begin),
                                           std::move(end), label,
                                           /*ceiling_interval=*/1000);
  sut.tardis->StartGcThread(100);
  return sut;
}

/// The BerkeleyDB stand-in: strict 2PL with record locks.
inline SystemUnderTest MakeSeqKv() {
  SystemUnderTest sut;
  sut.name = "BDB(2PL)";
  TwoPLOptions options;
  options.lock_timeout_us = 1'000;
  auto store = TwoPLStore::Open(options);
  sut.store = std::move(*store);
  return sut;
}

/// The OCC baseline.
inline SystemUnderTest MakeOcc() {
  SystemUnderTest sut;
  sut.name = "OCC";
  auto store = OccStore::Open(OccOptions{});
  sut.store = std::move(*store);
  return sut;
}

/// Prints the registry movement captured over the measurement window,
/// indented under the row it belongs to. No-op for systems that don't
/// expose a registry (DriverOptions::metrics unset -> empty delta).
inline void PrintMetricsDelta(const DriverResult& r) {
  if (r.metrics_delta.empty()) return;
  std::string line;
  for (char c : r.metrics_delta) {
    if (c == '\n') {
      printf("             | %s\n", line.c_str());
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  if (!line.empty()) printf("             | %s\n", line.c_str());
}

inline void PrintHeader(const char* what, const char* paper_expectation) {
  printf("==================================================================\n");
  printf("%s\n", what);
  printf("paper: %s\n", paper_expectation);
  printf("seed: %llu (rerun with --seed=%llu to reproduce)\n",
         static_cast<unsigned long long>(BenchSeed()),
         static_cast<unsigned long long>(BenchSeed()));
  printf("backend: %s (choose with --backend=mem|btree|trie)\n",
         BenchBackendName());
  printf("(set TARDIS_BENCH_SCALE>1 for longer, steadier runs)\n");
  printf("==================================================================\n");
}

}  // namespace bench
}  // namespace tardis

#endif  // TARDIS_BENCH_BENCH_COMMON_H_
