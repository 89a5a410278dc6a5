#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

OpenLoopTiming TimeFromDue(int64_t due_ns, int64_t send_ns, int64_t done_ns) {
  OpenLoopTiming t;
  t.latency_ns = done_ns - due_ns;
  t.late_ns = std::max<int64_t>(0, send_ns - due_ns);
  return t;
}

int64_t DueTimeNs(int64_t start_ns, uint64_t i, double rate_per_s) {
  return start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                         rate_per_s);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

}  // namespace perfbench
