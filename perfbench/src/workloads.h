// The benchmark's workloads. One call is one trial: set up, measure for
// the given seconds, check the outputs, and fill a Result with end-to-end
// and per-layer metrics. run.py runs several trials per run, each in a
// fresh process, pools their latency samples and reports the median of
// every other metric.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "result.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// With trace on, the benchmark's spans wrap every layer call over the
  /// whole window and the per-layer metrics are reported too.
  bool trace = false;
  /// Where the Chrome trace is written (empty: not written).
  std::string trace_path;
  std::string tardisd_bin;
  std::string router_bin;
};

/// `branch-merge`.
void RunBranchMerge(const RunOptions& opts, Result* result);
/// `grid`.
void RunGrid(const RunOptions& opts, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
