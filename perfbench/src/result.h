// One trial's outcome: every scalar metric with its unit and sample
// count, every latency population as raw samples, the operation counts,
// and the correctness verdict, printed as one JSON object for run.py.

#ifndef PERFBENCH_RESULT_H_
#define PERFBENCH_RESULT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t count = 0;  ///< samples behind the value (0 = not exercised)
};

class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t count) {
    metrics_[name] = Metric{value, unit, count};
  }
  /// A population (latencies in microseconds, sampled levels, set-up
  /// times) that run.py pools across trials before summarizing it.
  void AddSamples(const std::string& population, std::vector<double> values) {
    samples_[population] = std::move(values);
  }
  void SetParam(const std::string& name, const std::string& value) {
    params_[name] = value;
  }
  void Error(const std::string& what);
  bool correct() const { return errors_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string Json() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> params_;
  std::vector<std::string> errors_;
  uint64_t errors_total_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_RESULT_H_
