// Process observability: the one metrics mechanism every subsystem feeds.
//
// A MetricsRegistry owns named, labeled metrics of three kinds:
//
//  * Counter — monotone event count. Increments are wait-free: each
//    thread lands on one of kShards cache-line-padded relaxed atomics,
//    so the commit hot path never takes a lock (and never bounces a
//    shared cache line between committing cores). Reads sum the shards.
//  * Gauge — a point-in-time level (atomic set/add). Gauges may instead
//    be *callback-backed*: the registry evaluates a function at collect
//    time, which is how DAG leaf/state counts are exported without
//    shadow bookkeeping.
//  * HistogramMetric — a util/Histogram behind a striped spinlock:
//    threads hash to one of kStripes (lock, histogram) pairs, and a
//    snapshot merges the stripes. Observation cost is one uncontended
//    spinlock acquire.
//
// Registration is idempotent: registering an existing (name, labels)
// pair of the same kind returns the existing metric, so a store reopened
// against a shared registry keeps counting in place. Callback metrics
// are tagged with an owner token and dropped via DropCallbacks() before
// the owner dies (the registry may outlive any one component).
//
// Collect() snapshots every metric into plain Samples; the exposition
// module renders those (Prometheus text, human table, run deltas).

#ifndef TARDIS_OBS_METRICS_H_
#define TARDIS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"
#include "util/spinlock.h"

namespace tardis {
namespace obs {

/// Sorted-insignificant list of (label name, label value) pairs. Kept as
/// a vector: metrics carry one or two labels, a map would be overkill.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotone event counter, sharded per thread group. Increment is a
/// single relaxed fetch_add on a cache line owned by (a few) threads.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  /// Threads are assigned shards round-robin on first use; the index is
  /// thread-local so a thread always hits the same cache line.
  static size_t ShardIndex();

  Shard shards_[kShards];
};

/// Point-in-time level. Single atomic: gauges are set rarely compared to
/// counter increments.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// util/Histogram behind a striped spinlock; Observe touches one stripe.
class HistogramMetric {
 public:
  void Observe(uint64_t value);
  /// Merged view of all stripes.
  Histogram Snapshot() const;

 private:
  static constexpr size_t kStripes = 8;
  struct alignas(64) Stripe {
    mutable SpinLock mu;
    Histogram h;
  };
  static size_t StripeIndex();

  Stripe stripes_[kStripes];
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One collected metric value — a plain snapshot with no liveness ties to
/// the registry, safe to ship across threads or diff against a later
/// collection.
struct Sample {
  std::string name;
  LabelSet labels;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;  ///< kCounter
  double gauge = 0;      ///< kGauge
  Histogram hist;        ///< kHistogram
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returned pointers stay valid for the registry's lifetime. Kind must
  /// match on re-registration (same name + labels); mismatches return
  /// nullptr rather than aliasing a metric of another type.
  Counter* RegisterCounter(const std::string& name, const std::string& help,
                           LabelSet labels = {});
  Gauge* RegisterGauge(const std::string& name, const std::string& help,
                       LabelSet labels = {});
  HistogramMetric* RegisterHistogram(const std::string& name,
                                     const std::string& help,
                                     LabelSet labels = {});

  /// Callback-backed metrics are evaluated inside Collect(); `fn` must be
  /// callable without locks the collector could already hold. `owner`
  /// groups registrations for DropCallbacks.
  void RegisterCallbackGauge(const std::string& name, const std::string& help,
                             std::function<double()> fn, LabelSet labels = {},
                             const void* owner = nullptr);
  void RegisterCallbackCounter(const std::string& name,
                               const std::string& help,
                               std::function<uint64_t()> fn,
                               LabelSet labels = {},
                               const void* owner = nullptr);
  /// Removes every callback metric registered under `owner`. Components
  /// whose registry may outlive them call this from their destructor.
  void DropCallbacks(const void* owner);

  /// Snapshots all metrics, sorted by (name, labels) for stable output.
  std::vector<Sample> Collect() const;

  /// The sum of every counter series named `name` (0 when none): one
  /// counter read without a full snapshot, e.g. a store's
  /// tardis_txn_forks_total.
  uint64_t CounterTotal(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    LabelSet labels;
    std::string help;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> hist;
    std::function<double()> gauge_fn;      // callback gauge when set
    std::function<uint64_t()> counter_fn;  // callback counter when set
    const void* owner = nullptr;
  };

  Entry* FindLocked(const std::string& name, const LabelSet& labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace obs
}  // namespace tardis

#endif  // TARDIS_OBS_METRICS_H_
