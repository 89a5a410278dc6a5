// Figure 10: the benefit of branching as a function of the workload.
// TARDiS runs with branch-on-conflict ENABLED (Ancestor + Serializability):
//  (a) uniform read-heavy   — branching doesn't help; TARDiS slightly
//                             below BDB;
//  (b) uniform write-heavy  — TARDiS overtakes BDB (~35% in the paper);
//  (c) Zipfian write-heavy  — BDB collapses under lock contention; TARDiS
//                             wins by ~8x, OCC limited to ~1/5 of TARDiS;
//  (d) uniform blind writes — rare conflicts, short locks: branching only
//                             adds tracking cost; TARDiS slightly behind.

#include "bench_common.h"

using namespace tardis;
using namespace tardis::bench;

namespace {

void RunPanel(const char* label, Mix mix, Distribution dist,
              bool blind_writes) {
  printf("--- %s ---\n", label);
  printf("%-10s %8s %12s %12s %10s %8s\n", "system", "clients", "thr(txn/s)",
         "lat(us)", "p99(us)", "aborts");
  const size_t client_counts[] = {8, 32, 64};
  for (int which = 0; which < 3; which++) {
    for (size_t clients : client_counts) {
      SystemUnderTest sut = which == 0   ? MakeTardisBranching()
                            : which == 1 ? MakeSeqKv()
                                         : MakeOcc();
      WorkloadOptions w;
      w.num_keys = 10'000;
      w.mix = mix;
      w.dist = dist;
      w.blind_writes = blind_writes;
      if (!Preload(sut.store.get(), w).ok()) return;
      sut.EnableRtt();
      DriverOptions d;
      d.seed = BenchSeed();
      d.num_clients = clients;
      d.duration_ms = ScaledMs(1000);
      if (sut.tardis) d.metrics = sut.tardis->metrics();
      DriverResult r = RunClosedLoop(sut.facade(), w, d);
      printf("%-10s %8zu %12.0f %12.1f %10.0f %8llu", sut.name.c_str(),
             clients, r.throughput, r.txn_latency_us.mean(),
             r.txn_latency_us.Percentile(0.99),
             static_cast<unsigned long long>(r.aborted));
      if (sut.tardis) {
        printf("  [branches=%llu states=%zu]",
               static_cast<unsigned long long>(
                   sut.tardis->metrics()->CounterTotal(
                       "tardis_txn_forks_total")),
               sut.tardis->dag()->state_count());
        sut.tardis->StopGcThread();
      }
      printf("\n");
      PrintMetricsDelta(r);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  PrintHeader(
      "Figure 10: impact of branching (TARDiS = branch-on-conflict ON)",
      "(a) low contention: TARDiS slightly under BDB; (b) high contention: "
      "TARDiS ~1.35x BDB; (c) Zipfian: TARDiS ~8x BDB, ~5x OCC; (d) blind "
      "writes: branching doesn't help, TARDiS ~10% under BDB.");
  RunPanel("(a) uniform read-heavy", Mix::kReadHeavy, Distribution::kUniform,
           false);
  RunPanel("(b) uniform write-heavy", Mix::kWriteHeavy,
           Distribution::kUniform, false);
  RunPanel("(c) Zipfian write-heavy (p=0.99)", Mix::kWriteHeavy,
           Distribution::kZipfian, false);
  RunPanel("(d) uniform blind writes", Mix::kWriteHeavy,
           Distribution::kUniform, true);
  return 0;
}
