#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

SpanBuffer* SpanRecorder::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> guard(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(
      static_cast<uint32_t>(buffers_.size() + 1), kCapacity));
  return buffers_.back().get();
}

std::vector<SpanRecord> SpanRecorder::All() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans().begin(), b->spans().end());
  }
  return out;
}

uint64_t SpanRecorder::Dropped() const {
  std::lock_guard<std::mutex> guard(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped();
  return n;
}

ScopedSpan::ScopedSpan(SpanBuffer* buf, const char* name, uint64_t txn,
                       uint64_t parent)
    : buf_(buf) {
  if (buf_ == nullptr) return;
  rec_.name = name;
  rec_.id = buf_->NextId();
  rec_.parent = parent;
  rec_.txn = txn;
  rec_.tid = buf_->tid();
  rec_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) return;
  rec_.end_ns = NowNs();
  buf_->Add(rec_);
}

std::map<std::string, SelfTime> SelfTimes(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> out;
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const SpanRecord& s : spans) {
    const int64_t dur = s.end_ns - s.start_ns;
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      cover.clear();
      for (const SpanRecord* c : it->second) {
        const int64_t b = std::max(c->start_ns, s.start_ns);
        const int64_t e = std::min(c->end_ns, s.end_ns);
        if (e > b) cover.emplace_back(b, e);
      }
      std::sort(cover.begin(), cover.end());
      int64_t run_b = 0, run_e = -1;
      for (const auto& [b, e] : cover) {
        if (run_e < b) {
          if (run_e > run_b) covered += run_e - run_b;
          run_b = b;
          run_e = e;
        } else {
          run_e = std::max(run_e, e);
        }
      }
      if (run_e > run_b) covered += run_e - run_b;
    }
    SelfTime& st = out[s.name];
    st.count++;
    st.total_ns += dur;
    st.self_ns += dur - covered;
  }
  return out;
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& all,
                            size_t limit) {
  const std::vector<SpanRecord> spans(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(limit, all.size())));
  int64_t origin = INT64_MAX;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (const SpanRecord& s : spans) {
    snprintf(buf, sizeof(buf),
             "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
             "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
             ",\"parent\":%" PRIu64 ",\"txn\":%" PRIu64 "}}",
             first ? "" : ",", s.name, s.tid,
             static_cast<double>(s.start_ns - origin) / 1e3,
             static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
             s.txn);
    out += buf;
    first = false;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
