// Figure 11: impact of constraint choice. Write-heavy workload at a fixed
// client count (the "elbow" configuration); throughput for five begin/end
// constraint pairs:
//   Anc-Ser    Ancestor + Serializability (branching)
//   Parent-Ser Parent   + Serializability (branching, Git-like)
//   Anc-SI     Ancestor + Snapshot Isolation (branching)
//   Anc-SI-NB  Ancestor + SI ∧ NoBranching   (aborting)
//   Anc-Ser-NB Ancestor + Ser ∧ NoBranching  (aborting)

#include "bench_common.h"

using namespace tardis;
using namespace tardis::bench;

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  PrintHeader(
      "Figure 11: throughput by constraint choice (write-heavy)",
      "Anc-Ser ~1.2x Parent-Ser (leaf-only read-state search, fewer "
      "branches); Anc-SI within ~5% of Anc-Ser; the non-branching variants "
      "trail badly (repeated aborts).");

  struct Config {
    const char* label;
    BeginConstraintPtr begin;
    EndConstraintPtr end;
  };
  const Config configs[] = {
      {"Anc-Ser", AncestorBegin(), SerializabilityEnd()},
      {"Parent-Ser", ParentBegin(), SerializabilityEnd()},
      {"Anc-SI", AncestorBegin(), SnapshotIsolationEnd()},
      {"Anc-SI-NB", AncestorBegin(),
       AndEnd({SnapshotIsolationEnd(), NoBranchingEnd()})},
      {"Anc-Ser-NB", AncestorBegin(),
       AndEnd({SerializabilityEnd(), NoBranchingEnd()})},
  };

  printf("%-12s %12s %12s %8s %10s\n", "constraints", "thr(txn/s)", "lat(us)",
         "aborts", "branches");
  for (const Config& config : configs) {
    SystemUnderTest sut =
        MakeTardisWith(config.begin, config.end, config.label);
    WorkloadOptions w;
    // A smaller key space pushes contention to the elbow regime where the
    // constraint choice matters (the paper's 105-client configuration).
    w.num_keys = 2'000;
    w.mix = Mix::kWriteHeavy;
    w.dist = Distribution::kUniform;
    if (!Preload(sut.store.get(), w).ok()) return 1;
    sut.EnableRtt();
    DriverOptions d;
    d.seed = BenchSeed();
    d.num_clients = 64;
    d.duration_ms = ScaledMs(1500);
    DriverResult r = RunClosedLoop(sut.facade(), w, d);
    printf("%-12s %12.0f %12.1f %8llu %10llu\n", config.label, r.throughput,
           r.txn_latency_us.mean(),
           static_cast<unsigned long long>(r.aborted),
           static_cast<unsigned long long>(
               sut.tardis->metrics()->CounterTotal("tardis_txn_forks_total")));
    sut.tardis->StopGcThread();
  }
  return 0;
}
