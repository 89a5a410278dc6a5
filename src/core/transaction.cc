#include "core/transaction.h"

#include "core/tardis_store.h"

namespace tardis {

Transaction::Transaction(TardisStore* store, ClientSession* session,
                         Mode mode)
    : store_(store), session_(session), mode_(mode) {}

Transaction::~Transaction() {
  if (active_) Abort();
}

void Transaction::Finish() {
  for (const StatePtr& s : ctx_.read_states) s->UnpinAsReadState();
  active_ = false;
}

Status Transaction::Get(const Slice& key, std::string* value) {
  if (!active_) return Status::InvalidArgument("transaction finished");
  auto cached = write_cache_.find(key.ToString());
  if (cached != write_cache_.end()) {
    *value = *cached->second;
    return Status::OK();
  }
  ctx_.reads.Add(key.ToString());
  return store_->TxnGet(this, key, value);
}

Status Transaction::Put(const Slice& key, const Slice& value) {
  if (!active_) return Status::InvalidArgument("transaction finished");
  if (key.empty()) return Status::InvalidArgument("empty key");
  ctx_.writes.Add(key.ToString());
  write_cache_[key.ToString()] =
      std::make_shared<const std::string>(value.ToString());
  return Status::OK();
}

Status Transaction::GetForId(const Slice& key, StateId sid,
                             std::string* value) {
  if (!active_) return Status::InvalidArgument("transaction finished");
  return store_->TxnGetForId(this, key, sid, value);
}

std::vector<StateId> Transaction::parents() const {
  std::vector<StateId> out;
  out.reserve(ctx_.read_states.size());
  for (const StatePtr& s : ctx_.read_states) out.push_back(s->id());
  return out;
}

StatePtr Transaction::ResolveState(StateId sid) const {
  for (const StatePtr& s : ctx_.read_states) {
    if (s->id() == sid) return s;
  }
  return store_->dag()->Resolve(sid);
}

StatusOr<std::vector<StatePtr>> Transaction::ResolveStates(
    const std::vector<StateId>& states) const {
  std::vector<StatePtr> resolved;
  resolved.reserve(states.size());
  for (StateId sid : states) {
    StatePtr s = ResolveState(sid);
    if (s == nullptr) {
      return Status::Unavailable("state " + std::to_string(sid) +
                                 " unknown or garbage-collected");
    }
    resolved.push_back(std::move(s));
  }
  return resolved;
}

StatusOr<std::vector<StateId>> Transaction::FindForkPoints(
    const std::vector<StateId>& states) const {
  if (!active_) return Status::InvalidArgument("transaction finished");
  auto resolved = ResolveStates(states);
  if (!resolved.ok()) return resolved.status();
  std::vector<StatePtr> forks = store_->dag()->FindForkPoints(*resolved);
  if (forks.empty()) return Status::NotFound("no common ancestor");
  std::vector<StateId> out;
  out.reserve(forks.size());
  for (const StatePtr& f : forks) out.push_back(f->id());
  return out;
}

StatusOr<std::vector<std::string>> Transaction::FindConflictWrites(
    const std::vector<StateId>& states) const {
  if (!active_) return Status::InvalidArgument("transaction finished");
  auto resolved = ResolveStates(states);
  if (!resolved.ok()) return resolved.status();
  StatePtr fork = store_->dag()->FindForkPoint(*resolved);
  if (fork == nullptr) return Status::NotFound("no common ancestor");
  KeySet conflicts = store_->dag()->FindConflictWrites(fork, *resolved);
  return conflicts.keys();
}

Status Transaction::Commit(EndConstraintPtr end_constraint) {
  if (!active_) return Status::InvalidArgument("transaction finished");
  return store_->CommitTxn(this, end_constraint);
}

void Transaction::Abort() {
  if (!active_) return;
  store_->AbortTxn(this);
}

}  // namespace tardis
