// Timing arithmetic shared by the workloads: open-loop due times,
// lateness, the clock, and peak memory. Percentiles are
// computed by run.py over the samples every trial reports (percentiles.py).

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>

namespace perfbench {

/// Open-loop timing of one request: latency runs from the moment the
/// request was due, so a stall also charges the requests queued behind it;
/// lateness is how long after its due time the generator sent it.
struct OpenLoopTiming {
  int64_t latency_ns = 0;
  int64_t late_ns = 0;
};
OpenLoopTiming TimeFromDue(int64_t due_ns, int64_t send_ns, int64_t done_ns);

/// Due time of request `i` of a fixed-rate schedule starting at start_ns.
int64_t DueTimeNs(int64_t start_ns, uint64_t i, double rate_per_s);

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// VmHWM of a process in MiB from /proc/<pid>/status (pid 0 = self);
/// negative when unreadable.
double PeakRssMb(int pid = 0);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
