// tardis_perfbench: runs one workload once and prints its Result as one
// JSON line. perfbench/run.py builds this binary and wraps it.
//
//   tardis_perfbench --workload=branch-merge|grid --seed=N
//                    --seconds=S [--trace=0|1] [--trace-file=PATH]
//                    [--tardisd=PATH --router=PATH]
//
// Exit status: 0 when every correctness check passed, 3 when one failed
// (the result is still printed), 2 when the run could not complete.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "result.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      opts.workload = v;
    } else if (const char* v = value("--seed=")) {
      opts.seed = strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      opts.seconds = atof(v);
    } else if (const char* v = value("--trace=")) {
      opts.trace = atoi(v) != 0;
    } else if (const char* v = value("--trace-file=")) {
      opts.trace_path = v;
    } else if (const char* v = value("--tardisd=")) {
      opts.tardisd_bin = v;
    } else if (const char* v = value("--router=")) {
      opts.router_bin = v;
    } else {
      fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (opts.seconds <= 0) {
    fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  perfbench::Result result;
  try {
    if (opts.workload == "branch-merge") {
      perfbench::RunBranchMerge(opts, &result);
    } else if (opts.workload == "grid") {
      if (opts.tardisd_bin.empty() || opts.router_bin.empty()) {
        fprintf(stderr, "grid needs --tardisd and --router\n");
        return 2;
      }
      perfbench::RunGrid(opts, &result);
    } else {
      fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  printf("%s\n", result.Json().c_str());
  fflush(stdout);
  return result.correct() ? 0 : 3;
}
