// Value provenance. Every value the benchmark writes embeds its key, its
// writer and the writer's sequence number, plus a global issue number
// that makes "largest value wins" pick the latest-issued write. Each
// writer logs what it issued, so any value read back can be traced to the
// one write that produced it.

#ifndef PERFBENCH_VALUES_H_
#define PERFBENCH_VALUES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// "k00001234": fixed width, so keys sort like their indexes.
std::string KeyName(uint64_t index);
/// Inverse of KeyName; false on anything else.
bool ParseKey(const std::string& key, uint64_t* index);

struct ValueId {
  uint64_t gseq = 0;    ///< global issue number; 0 = preload
  uint32_t writer = 0;  ///< 0 = preload
  uint64_t idx = 0;     ///< writer's sequence (preload: the key index)
  uint64_t key = 0;
};

/// "<gseq:12>.w<writer>.i<idx>.<key>".
std::string EncodeValue(const ValueId& id);
/// Parses and re-encodes: only the exact canonical bytes decode.
bool DecodeValue(const std::string& value, ValueId* id);

struct WriteRecord {
  uint64_t key = 0;
  uint64_t gseq = 0;
  int64_t issue_ns = 0;
  /// Set by the writer once the store or daemon acknowledged the write;
  /// read only after the writer joined.
  bool acked = false;
  int64_t ack_ns = 0;
};

/// Append-only log of one writer's issued writes. Only the owning thread
/// appends or mutates; any thread may Find a published record. Records
/// never move (fixed chunks), so Find needs no lock.
class WriterLog {
 public:
  WriterLog() = default;
  ~WriterLog();
  WriterLog(const WriterLog&) = delete;
  WriterLog& operator=(const WriterLog&) = delete;

  uint64_t Append(const WriteRecord& r);
  const WriteRecord* Find(uint64_t idx) const;
  WriteRecord* Mutable(uint64_t idx);
  uint64_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  static constexpr uint64_t kChunk = 1u << 16;
  static constexpr uint64_t kMaxChunks = 4096;
  std::atomic<WriteRecord*> chunks_[kMaxChunks] = {};
  std::atomic<uint64_t> size_{0};
};

class Provenance {
 public:
  /// Writers are numbered 1..writers; writer 0 is the preload.
  Provenance(uint32_t writers, uint64_t keys);

  uint64_t keys() const { return keys_; }
  std::string PreloadValue(uint64_t key) const;

  /// Logs a new write of `key` by `writer` and returns its value.
  std::string IssueWrite(uint32_t writer, uint64_t key, uint64_t* idx);
  void Ack(uint32_t writer, uint64_t idx, int64_t ack_ns);

  /// Run-time read check: the preload value or a value some issued write
  /// produced, for this same key.
  bool CheckRead(uint64_t key, const std::string& value,
                 std::string* why) const;

  /// End-of-run check of a single-copy store that merged to one branch:
  /// the preload value or a value written by an acknowledged write.
  bool CheckFinalAcked(uint64_t key, const std::string& value,
                       std::string* why) const;

  /// End-of-run check of a replicated store, per key: the value must pass
  /// CheckRead, and it must not come from a write that completed before
  /// some acknowledged write of the key was issued (that later value, or
  /// one after it, must be what is read). `latest_acked_issue_ns` is
  /// LatestAckedIssue()[key].
  bool CheckFinalRealTime(uint64_t key, const std::string& value,
                          int64_t latest_acked_issue_ns,
                          std::string* why) const;
  /// Per key: the issue time of its last-issued acknowledged write, or -1.
  std::vector<int64_t> LatestAckedIssue() const;

  const WriterLog& log(uint32_t writer) const { return *logs_[writer]; }

 private:
  /// Decodes and resolves a value to its write record (null for preload).
  bool Resolve(uint64_t key, const std::string& value, ValueId* id,
               const WriteRecord** rec, std::string* why) const;

  const uint64_t keys_;
  std::atomic<uint64_t> next_gseq_{1};
  std::vector<std::unique_ptr<WriterLog>> logs_;  // index 0 unused
};

}  // namespace perfbench

#endif  // PERFBENCH_VALUES_H_
