#include "obs/metrics.h"

#include <algorithm>

namespace tardis {
namespace obs {

size_t Counter::ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

size_t HistogramMetric::StripeIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

void HistogramMetric::Observe(uint64_t value) {
  Stripe& s = stripes_[StripeIndex()];
  std::lock_guard<SpinLock> guard(s.mu);
  s.h.Add(value);
}

Histogram HistogramMetric::Snapshot() const {
  Histogram merged;
  for (const Stripe& s : stripes_) {
    std::lock_guard<SpinLock> guard(s.mu);
    merged.Merge(s.h);
  }
  return merged;
}

MetricsRegistry::Entry* MetricsRegistry::FindLocked(const std::string& name,
                                                    const LabelSet& labels) {
  for (const auto& e : entries_) {
    if (e->name == name && e->labels == labels) return e.get();
  }
  return nullptr;
}

Counter* MetricsRegistry::RegisterCounter(const std::string& name,
                                          const std::string& help,
                                          LabelSet labels) {
  std::lock_guard<std::mutex> guard(mu_);
  if (Entry* e = FindLocked(name, labels)) {
    return e->kind == MetricKind::kCounter ? e->counter.get() : nullptr;
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->labels = std::move(labels);
  e->help = help;
  e->kind = MetricKind::kCounter;
  e->counter = std::make_unique<Counter>();
  Counter* out = e->counter.get();
  entries_.push_back(std::move(e));
  return out;
}

Gauge* MetricsRegistry::RegisterGauge(const std::string& name,
                                      const std::string& help,
                                      LabelSet labels) {
  std::lock_guard<std::mutex> guard(mu_);
  if (Entry* e = FindLocked(name, labels)) {
    return e->kind == MetricKind::kGauge ? e->gauge.get() : nullptr;
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->labels = std::move(labels);
  e->help = help;
  e->kind = MetricKind::kGauge;
  e->gauge = std::make_unique<Gauge>();
  Gauge* out = e->gauge.get();
  entries_.push_back(std::move(e));
  return out;
}

HistogramMetric* MetricsRegistry::RegisterHistogram(const std::string& name,
                                                    const std::string& help,
                                                    LabelSet labels) {
  std::lock_guard<std::mutex> guard(mu_);
  if (Entry* e = FindLocked(name, labels)) {
    return e->kind == MetricKind::kHistogram ? e->hist.get() : nullptr;
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->labels = std::move(labels);
  e->help = help;
  e->kind = MetricKind::kHistogram;
  e->hist = std::make_unique<HistogramMetric>();
  HistogramMetric* out = e->hist.get();
  entries_.push_back(std::move(e));
  return out;
}

void MetricsRegistry::RegisterCallbackGauge(const std::string& name,
                                            const std::string& help,
                                            std::function<double()> fn,
                                            LabelSet labels,
                                            const void* owner) {
  std::lock_guard<std::mutex> guard(mu_);
  if (Entry* e = FindLocked(name, labels)) {
    // Re-registration rebinds: a reopened component takes over the slot.
    e->gauge_fn = std::move(fn);
    e->owner = owner;
    return;
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->labels = std::move(labels);
  e->help = help;
  e->kind = MetricKind::kGauge;
  e->gauge_fn = std::move(fn);
  e->owner = owner;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::RegisterCallbackCounter(const std::string& name,
                                              const std::string& help,
                                              std::function<uint64_t()> fn,
                                              LabelSet labels,
                                              const void* owner) {
  std::lock_guard<std::mutex> guard(mu_);
  if (Entry* e = FindLocked(name, labels)) {
    e->counter_fn = std::move(fn);
    e->owner = owner;
    return;
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->labels = std::move(labels);
  e->help = help;
  e->kind = MetricKind::kCounter;
  e->counter_fn = std::move(fn);
  e->owner = owner;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::DropCallbacks(const void* owner) {
  if (owner == nullptr) return;
  std::lock_guard<std::mutex> guard(mu_);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [owner](const std::unique_ptr<Entry>& e) {
                                  return e->owner == owner;
                                }),
                 entries_.end());
}

std::vector<Sample> MetricsRegistry::Collect() const {
  std::vector<Sample> out;
  {
    std::lock_guard<std::mutex> guard(mu_);
    out.reserve(entries_.size());
    for (const auto& e : entries_) {
      Sample s;
      s.name = e->name;
      s.labels = e->labels;
      s.help = e->help;
      s.kind = e->kind;
      switch (e->kind) {
        case MetricKind::kCounter:
          s.counter = e->counter_fn ? e->counter_fn() : e->counter->Value();
          break;
        case MetricKind::kGauge:
          s.gauge = e->gauge_fn ? e->gauge_fn()
                                : static_cast<double>(e->gauge->Value());
          break;
        case MetricKind::kHistogram:
          s.hist = e->hist->Snapshot();
          break;
      }
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return out;
}

uint64_t MetricsRegistry::CounterTotal(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mu_);
  uint64_t total = 0;
  for (const auto& e : entries_) {
    if (e->name != name || e->kind != MetricKind::kCounter) continue;
    total += e->counter_fn ? e->counter_fn() : e->counter->Value();
  }
  return total;
}

}  // namespace obs
}  // namespace tardis
