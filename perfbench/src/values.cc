#include "values.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "stats.h"

namespace perfbench {

std::string KeyName(uint64_t index) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%08" PRIu64, index);
  return buf;
}

bool ParseKey(const std::string& key, uint64_t* index) {
  if (key.size() < 9 || key[0] != 'k') return false;
  uint64_t v = 0;
  for (size_t i = 1; i < key.size(); i++) {
    if (key[i] < '0' || key[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  *index = v;
  return KeyName(v) == key;
}

std::string EncodeValue(const ValueId& id) {
  char buf[96];
  snprintf(buf, sizeof(buf), "%012" PRIu64 ".w%u.i%" PRIu64 ".", id.gseq,
           id.writer, id.idx);
  return buf + KeyName(id.key);
}

bool DecodeValue(const std::string& value, ValueId* id) {
  uint64_t gseq = 0, idx = 0;
  unsigned writer = 0;
  int consumed = 0;
  if (sscanf(value.c_str(), "%12" SCNu64 ".w%u.i%" SCNu64 ".%n", &gseq,
             &writer, &idx, &consumed) != 3 ||
      consumed <= 0) {
    return false;
  }
  uint64_t key = 0;
  if (!ParseKey(value.substr(static_cast<size_t>(consumed)), &key)) {
    return false;
  }
  ValueId parsed{gseq, writer, idx, key};
  if (EncodeValue(parsed) != value) return false;
  *id = parsed;
  return true;
}

WriterLog::~WriterLog() {
  for (auto& c : chunks_) delete[] c.load();
}

uint64_t WriterLog::Append(const WriteRecord& r) {
  const uint64_t idx = size_.load(std::memory_order_relaxed);
  const uint64_t chunk = idx / kChunk;
  if (chunk >= kMaxChunks) {
    fprintf(stderr, "perfbench: writer log full\n");
    abort();
  }
  WriteRecord* c = chunks_[chunk].load(std::memory_order_relaxed);
  if (c == nullptr) {
    c = new WriteRecord[kChunk];
    chunks_[chunk].store(c, std::memory_order_release);
  }
  c[idx % kChunk] = r;
  size_.store(idx + 1, std::memory_order_release);
  return idx;
}

const WriteRecord* WriterLog::Find(uint64_t idx) const {
  if (idx >= size()) return nullptr;
  return &chunks_[idx / kChunk].load(std::memory_order_acquire)[idx % kChunk];
}

WriteRecord* WriterLog::Mutable(uint64_t idx) {
  return const_cast<WriteRecord*>(Find(idx));
}

Provenance::Provenance(uint32_t writers, uint64_t keys) : keys_(keys) {
  for (uint32_t w = 0; w <= writers; w++) {
    logs_.push_back(std::make_unique<WriterLog>());
  }
}

std::string Provenance::PreloadValue(uint64_t key) const {
  return EncodeValue(ValueId{0, 0, key, key});
}

std::string Provenance::IssueWrite(uint32_t writer, uint64_t key,
                                   uint64_t* idx) {
  WriteRecord r;
  r.key = key;
  r.gseq = next_gseq_.fetch_add(1, std::memory_order_relaxed);
  r.issue_ns = NowNs();
  *idx = logs_[writer]->Append(r);
  return EncodeValue(ValueId{r.gseq, writer, *idx, key});
}

void Provenance::Ack(uint32_t writer, uint64_t idx, int64_t ack_ns) {
  WriteRecord* r = logs_[writer]->Mutable(idx);
  r->acked = true;
  r->ack_ns = ack_ns;
}

bool Provenance::Resolve(uint64_t key, const std::string& value, ValueId* id,
                         const WriteRecord** rec, std::string* why) const {
  *rec = nullptr;
  if (!DecodeValue(value, id)) {
    *why = "undecodable value '" + value + "' for " + KeyName(key);
    return false;
  }
  if (id->key != key) {
    *why = "value '" + value + "' belongs to another key than " + KeyName(key);
    return false;
  }
  if (id->writer == 0) {
    if (id->gseq != 0 || id->idx != key) {
      *why = "malformed preload value '" + value + "'";
      return false;
    }
    return true;
  }
  if (id->writer >= logs_.size()) {
    *why = "value '" + value + "' names an unknown writer";
    return false;
  }
  const WriteRecord* r = logs_[id->writer]->Find(id->idx);
  if (r == nullptr || r->key != key || r->gseq != id->gseq) {
    *why = "value '" + value + "' was never written to " + KeyName(key);
    return false;
  }
  *rec = r;
  return true;
}

bool Provenance::CheckRead(uint64_t key, const std::string& value,
                           std::string* why) const {
  ValueId id;
  const WriteRecord* rec = nullptr;
  return Resolve(key, value, &id, &rec, why);
}

bool Provenance::CheckFinalAcked(uint64_t key, const std::string& value,
                                 std::string* why) const {
  ValueId id;
  const WriteRecord* rec = nullptr;
  if (!Resolve(key, value, &id, &rec, why)) return false;
  if (rec != nullptr && !rec->acked) {
    *why = "final value '" + value + "' comes from an unacknowledged write";
    return false;
  }
  return true;
}

bool Provenance::CheckFinalRealTime(uint64_t key, const std::string& value,
                                    int64_t latest_acked_issue_ns,
                                    std::string* why) const {
  ValueId id;
  const WriteRecord* rec = nullptr;
  if (!Resolve(key, value, &id, &rec, why)) return false;
  if (latest_acked_issue_ns < 0) return true;
  if (rec == nullptr) {
    *why = KeyName(key) + " lost every acknowledged write (reads preload)";
    return false;
  }
  if (rec->acked && rec->ack_ns < latest_acked_issue_ns) {
    *why = KeyName(key) + " reads '" + value +
           "', which was acknowledged before a later acknowledged write "
           "was issued";
    return false;
  }
  return true;
}

std::vector<int64_t> Provenance::LatestAckedIssue() const {
  std::vector<int64_t> latest(keys_, -1);
  for (size_t w = 1; w < logs_.size(); w++) {
    const WriterLog& log = *logs_[w];
    for (uint64_t i = 0; i < log.size(); i++) {
      const WriteRecord* r = log.Find(i);
      if (r->acked && r->key < keys_ && r->issue_ns > latest[r->key]) {
        latest[r->key] = r->issue_ns;
      }
    }
  }
  return latest;
}

}  // namespace perfbench
