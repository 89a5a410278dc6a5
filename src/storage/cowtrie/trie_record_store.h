// TrieRecordStore: RecordStore adapter over a CowTrie (DESIGN.md §12).
//
// The flat RecordStore keyspace is one branch of a trie this store owns.
// The core's encoded record versions and the recovery id-floor scan
// (ForEachKey) work on it unchanged, which is what lets the trie slot in
// as a third backend next to memstore/btree.

#ifndef TARDIS_STORAGE_COWTRIE_TRIE_RECORD_STORE_H_
#define TARDIS_STORAGE_COWTRIE_TRIE_RECORD_STORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "storage/cowtrie/cow_trie.h"
#include "storage/record_store.h"

namespace tardis {

class TrieRecordStore : public RecordStore {
 public:
  /// The branch holding the flat keyspace.
  static constexpr BranchStore::BranchId kFlatBranch = 0;

  /// `registry` (optional) receives the trie metric family under `labels`.
  explicit TrieRecordStore(obs::MetricsRegistry* registry = nullptr,
                           obs::LabelSet labels = {})
      : trie_(registry, std::move(labels)) {
    trie_.CreateBranch(kFlatBranch);
  }

  Status Put(const Slice& key, const Slice& value) override {
    return trie_.Put(kFlatBranch, key,
                     std::make_shared<const std::string>(value.ToString()),
                     tag_.fetch_add(1, std::memory_order_relaxed));
  }

  Status Get(const Slice& key, std::string* value) override {
    return trie_.Get(kFlatBranch, key, value);
  }

  Status Delete(const Slice& key) override {
    return trie_.Delete(kFlatBranch, key);
  }

  Status Sync() override { return Status::OK(); }

  uint64_t size() const override { return trie_.BranchSize(kFlatBranch); }

  Status ForEachKey(
      const std::function<Status(const Slice& key)>& fn) override {
    return trie_.ForEach(
        kFlatBranch,
        [&fn](const Slice& key, const std::string&) { return fn(key); });
  }

 private:
  CowTrie trie_;
  std::atomic<uint64_t> tag_{1};
};

}  // namespace tardis

#endif  // TARDIS_STORAGE_COWTRIE_TRIE_RECORD_STORE_H_
