// The benchmark's own spans: one per call into a layer, kept in memory
// per thread and written out as Chrome-trace JSON when the run ends.
// Spans of one transaction or request share its id; each names the span
// that caused it, so self time is a span's duration minus what its
// children cover.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t txn = 0;     ///< transaction or request id
  uint32_t tid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans recorded by one thread; only that thread appends.
class SpanBuffer {
 public:
  SpanBuffer(uint32_t tid, size_t capacity) : tid_(tid), capacity_(capacity) {}

  uint64_t NextId() { return (static_cast<uint64_t>(tid_) << 40) | ++next_; }
  void Add(const SpanRecord& r) {
    if (spans_.size() < capacity_) {
      spans_.push_back(r);
    } else {
      dropped_++;
    }
  }
  uint32_t tid() const { return tid_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  const uint32_t tid_;
  const size_t capacity_;
  uint64_t next_ = 0;
  uint64_t dropped_ = 0;
  std::vector<SpanRecord> spans_;
};

/// Owns every thread's buffer. Disabled recorders hand out null buffers,
/// and a span on a null buffer costs one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// A fresh buffer for a new thread (null when disabled).
  SpanBuffer* NewBuffer();
  /// All spans of all buffers (call after the recording threads joined).
  std::vector<SpanRecord> All() const;
  uint64_t Dropped() const;

 private:
  /// Spans kept per thread (about 200 MB across four threads at most);
  /// later ones are counted in Dropped().
  static constexpr size_t kCapacity = 1u << 20;

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// RAII span around one call. A null buffer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, uint64_t txn,
             uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return rec_.id; }

 private:
  SpanBuffer* const buf_;
  SpanRecord rec_;
};

/// Per span name: how many, their total duration and their self time.
struct SelfTime {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it (overlapping children count once).
std::map<std::string, SelfTime> SelfTimes(const std::vector<SpanRecord>& spans);

/// Chrome trace_event JSON ("X" events, microsecond timestamps) of the
/// first `limit` spans.
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            size_t limit);

/// Spans written to a trace file; beyond this the file would grow past
/// ~15 MB while adding nothing a viewer shows.
constexpr size_t kTraceFileSpans = 100'000;

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
