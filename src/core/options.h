// TardisOptions: construction-time configuration of a TARDiS site.

#ifndef TARDIS_CORE_OPTIONS_H_
#define TARDIS_CORE_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "fault/env.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace tardis {

/// Record storage backend of a site (DESIGN.md §12).
enum class RecordBackend {
  kMem,    ///< std::map in memory (the TARDiS-MDB analogue)
  kBTree,  ///< disk-backed B+Tree (the TARDiS-BDB analogue); needs a dir
  kTrie,   ///< copy-on-write trie (in-memory)
};

/// "mem" / "btree" / "trie".
inline const char* RecordBackendName(RecordBackend backend) {
  switch (backend) {
    case RecordBackend::kMem:
      return "mem";
    case RecordBackend::kBTree:
      return "btree";
    case RecordBackend::kTrie:
      return "trie";
  }
  return "unknown";
}

/// Parses a backend name; nullopt on unknown input.
inline std::optional<RecordBackend> ParseRecordBackend(
    const std::string& name) {
  if (name == "mem") return RecordBackend::kMem;
  if (name == "btree") return RecordBackend::kBTree;
  if (name == "trie") return RecordBackend::kTrie;
  return std::nullopt;
}

struct TardisOptions {
  /// Directory for the record store and commit log. Empty means fully
  /// in-memory and non-durable (handy for tests and benchmarks).
  std::string dir;

  /// Record backend. A store with a dir must use kBTree, the only backend
  /// that persists records; kBTree without a dir is rejected too. Open
  /// returns InvalidArgument for either mismatch.
  RecordBackend backend = RecordBackend::kMem;

  /// Write the commit log (required for recovery). Needs a non-empty dir.
  bool enable_commit_log = true;

  /// kAsync trades durability for throughput (§6.5 "Asynchronous Flush");
  /// kSync fsyncs the commit log on every commit.
  Wal::FlushMode flush_mode = Wal::FlushMode::kAsync;

  /// Buffer pool capacity for the B+Tree backend, in 4 KiB pages.
  size_t cache_pages = 8192;

  /// Replication identity of this site.
  uint32_t site_id = 0;

  /// Run recovery from the commit log on open (when a log exists).
  bool recover_on_open = true;

  /// When > 0, a checkpoint is taken automatically once the commit log
  /// exceeds this many bytes (§6.5 "periodically takes non-blocking
  /// checkpoints"), truncating the log. The checkpoint runs on the
  /// committing thread; with FlushMode::kAsync it costs one DAG snapshot
  /// plus a sequential file write.
  uint64_t checkpoint_log_bytes = 0;

  /// File-operations environment for the record store, commit log and
  /// checkpoint files. Null selects the passthrough POSIX environment;
  /// tests install a fault::FaultEnv to inject disk errors, short writes
  /// and crash-restart cycles. Must outlive the store.
  fault::Env* env = nullptr;

  /// Metrics registry this site registers its counters/gauges/histograms
  /// in, labeled with site_id. Null means the store creates a private
  /// registry (reachable via TardisStore::metrics()). Share one registry
  /// across the store, replicator and transport of a process (tardisd
  /// does) to expose everything through a single endpoint.
  std::shared_ptr<obs::MetricsRegistry> metrics_registry;
};

}  // namespace tardis

#endif  // TARDIS_CORE_OPTIONS_H_
