#include "core/key_version_map.h"

namespace tardis {

KeyVersionMap::VersionList* KeyVersionMap::GetList(const Slice& key) const {
  std::shared_lock<std::shared_mutex> guard(map_mu_);
  auto it = map_.find(key.ToString());
  return it == map_.end() ? nullptr : it->second.get();
}

KeyVersionMap::VersionList* KeyVersionMap::GetOrCreateList(const Slice& key) {
  if (VersionList* list = GetList(key)) return list;
  std::unique_lock<std::shared_mutex> guard(map_mu_);
  auto& slot = map_[key.ToString()];
  if (!slot) slot = std::make_unique<VersionList>(DescendingBySid());
  return slot.get();
}

bool KeyVersionMap::AddVersion(const Slice& key, const StatePtr& state,
                               std::shared_ptr<const std::string> value) {
  std::shared_lock<std::shared_mutex> gate(gate_);
  VersionList* list = GetOrCreateList(key);
  VersionEntry entry;
  entry.sid = state->id();
  entry.state = state;
  entry.value = std::move(value);
  return list->Insert(entry);
}

StatusOr<VersionEntry> KeyVersionMap::GetVisible(
    const Slice& key, const State& read_state) const {
  std::shared_lock<std::shared_mutex> gate(gate_);
  VersionList* list = GetList(key);
  if (list == nullptr) return Status::NotFound();
  VersionList::Iterator it(list);
  // Skip versions newer than the read state outright: they can never pass
  // the id check of Fig. 7.
  VersionEntry probe;
  probe.sid = read_state.id();
  it.Seek(probe);
  for (; it.Valid(); it.Next()) {
    const VersionEntry& entry = it.key();
    if (StateDag::DescendantCheck(*entry.state, read_state)) {
      return entry;
    }
  }
  return Status::NotFound();
}

StatusOr<VersionEntry> KeyVersionMap::Get(const Slice& key,
                                          StateId sid) const {
  std::shared_lock<std::shared_mutex> gate(gate_);
  VersionList* list = GetList(key);
  if (list == nullptr) return Status::NotFound();
  VersionList::Iterator it(list);
  VersionEntry probe;
  probe.sid = sid;
  it.Seek(probe);
  if (it.Valid() && it.key().sid == sid) return it.key();
  return Status::NotFound();
}

std::vector<VersionEntry> KeyVersionMap::Versions(const Slice& key) const {
  std::shared_lock<std::shared_mutex> gate(gate_);
  std::vector<VersionEntry> out;
  VersionList* list = GetList(key);
  if (list == nullptr) return out;
  VersionList::Iterator it(list);
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    out.push_back(it.key());
  }
  return out;
}

void KeyVersionMap::ForEachVersion(
    const Slice& key,
    const std::function<void(const VersionEntry&)>& fn) const {
  std::shared_lock<std::shared_mutex> gate(gate_);
  VersionList* list = GetList(key);
  if (list == nullptr) return;
  VersionList::Iterator it(list);
  for (it.SeekToFirst(); it.Valid(); it.Next()) fn(it.key());
}

bool KeyVersionMap::RemoveVersion(const Slice& key, StateId sid) {
  std::shared_lock<std::shared_mutex> gate(gate_);
  VersionList* list = GetList(key);
  if (list == nullptr) return false;
  VersionEntry probe;
  probe.sid = sid;
  return list->Remove(probe);
}

void KeyVersionMap::ForEachKey(
    const std::function<void(const std::string&)>& fn) const {
  std::vector<std::string> keys;
  {
    std::shared_lock<std::shared_mutex> guard(map_mu_);
    keys.reserve(map_.size());
    for (const auto& [k, v] : map_) keys.push_back(k);
  }
  for (const std::string& k : keys) fn(k);
}

void KeyVersionMap::DrainRetired() {
  // Exclusive gate: no reader or writer holds a pointer into any list.
  std::unique_lock<std::shared_mutex> gate(gate_);
  std::shared_lock<std::shared_mutex> guard(map_mu_);
  for (auto& [k, list] : map_) list->DrainRetired();
}

size_t KeyVersionMap::key_count() const {
  std::shared_lock<std::shared_mutex> guard(map_mu_);
  return map_.size();
}

size_t KeyVersionMap::version_count() const {
  std::shared_lock<std::shared_mutex> guard(map_mu_);
  size_t total = 0;
  for (const auto& [k, list] : map_) total += list->size();
  return total;
}

}  // namespace tardis
