// tardis_shell: an interactive REPL for poking at a TARDiS store — create
// sessions, run transactions, fork the state on purpose, inspect the DAG,
// and merge branches by hand. Handy for exploring the branch-and-merge
// model and for debugging.
//
//   $ ./examples/tardis_shell              # interactive, in-process store
//   $ echo "help" | ./examples/tardis_shell
//   $ ./examples/tardis_shell --demo       # scripted self-demo
//   $ ./examples/tardis_shell --connect host:port   # remote mode
//
// With --connect the shell attaches to a running tardisd (client port) or
// tardis-router instead of an in-process store, through TardisClient
// (src/client/): commands carry the `*S` session header, writes are
// exactly-once across retries, retryable errors (ERR BUSY / DEADLINE /
// SHUTTING_DOWN / BEHIND) back off with jitter, and a comma-separated
// endpoint list fails over automatically. END-terminated multi-line
// replies (health, metrics, stats, merge, sync) are read to completion.
// Against a router, `health` therefore shows the aggregated per-partition
// state (one P<i>-prefixed block per partition). --stale-reads-ms=N
// relaxes session read floors learned in the last N ms (bounded-staleness
// degraded reads instead of failover when replicas lag).
//
// Commands:
//   session <name>          switch to (or create) a client session
//   begin [parent|ancestor] start a transaction on the current session
//   get <key>               read inside the open transaction
//   put <key> <value>       write inside the open transaction
//   commit [ser|si|ser-nb]  commit (default ser)
//   abort                   abort the open transaction
//   merge                   start a merge transaction over all branch tips
//   forks                   fork points of the open merge's parents
//   conflicts               conflicting keys of the open merge's parents
//   getat <key> <state-id>  value of key at a given state (getForID)
//   dag                     print the state DAG
//   dot                     print the DAG as graphviz
//   gc                      place a ceiling here and run garbage collection
//   stats                   store statistics
//   quit

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "client/tardis_client.h"
#include "core/tardis_store.h"

using namespace tardis;

namespace {

struct Shell {
  std::unique_ptr<TardisStore> store;
  std::map<std::string, std::unique_ptr<ClientSession>> sessions;
  // One open transaction per session, so the REPL can interleave
  // transactions from different sessions and provoke real forks.
  std::map<std::string, TxnPtr> txns;
  std::string current = "default";

  ClientSession* session() {
    auto& slot = sessions[current];
    if (!slot) slot = store->CreateSession();
    return slot.get();
  }

  TxnPtr& txn_slot() { return txns[current]; }

  void Help() {
    printf(
        "commands: session <name> | begin [parent|ancestor] | get <k> |\n"
        "  put <k> <v> | commit [ser|si|ser-nb] | abort | merge | forks |\n"
        "  conflicts | getat <k> <state-id> | dag | dot | gc | stats | "
        "quit\n");
  }

  bool NeedTxn() {
    if (txn_slot() == nullptr) {
      printf("no open transaction on session %s (use `begin` or `merge`)\n",
             current.c_str());
      return false;
    }
    return true;
  }

  void Execute(const std::string& line) {
    std::stringstream ss(line);
    std::string cmd;
    if (!(ss >> cmd)) return;

    if (cmd == "help") {
      Help();
    } else if (cmd == "session") {
      std::string name;
      if (ss >> name) current = name;
      printf("session: %s\n", current.c_str());
    } else if (cmd == "begin") {
      std::string which = "ancestor";
      ss >> which;
      auto t = store->Begin(session(),
                            which == "parent" ? ParentBegin() : AncestorBegin());
      if (!t.ok()) {
        printf("begin failed: %s\n", t.status().ToString().c_str());
        return;
      }
      txn_slot() = std::move(*t);
      printf("[%s] reading from state %llu\n", current.c_str(),
             static_cast<unsigned long long>(txn_slot()->parents()[0]));
    } else if (cmd == "merge") {
      auto t = store->BeginMerge(session());
      if (!t.ok()) {
        printf("merge begin failed: %s\n", t.status().ToString().c_str());
        return;
      }
      txn_slot() = std::move(*t);
      printf("merging %zu branch tips:", txn_slot()->parents().size());
      for (StateId p : txn_slot()->parents()) {
        printf(" %llu", static_cast<unsigned long long>(p));
      }
      printf("\n");
    } else if (cmd == "get") {
      if (!NeedTxn()) return;
      std::string key;
      ss >> key;
      std::string value;
      Status s = txn_slot()->Get(key, &value);
      if (s.ok()) printf("%s = %s\n", key.c_str(), value.c_str());
      else printf("%s: %s\n", key.c_str(), s.ToString().c_str());
    } else if (cmd == "put") {
      if (!NeedTxn()) return;
      std::string key, value;
      ss >> key;
      std::getline(ss, value);
      if (!value.empty() && value[0] == ' ') value.erase(0, 1);
      Status s = txn_slot()->Put(key, value);
      printf("%s\n", s.ToString().c_str());
    } else if (cmd == "commit") {
      if (!NeedTxn()) return;
      std::string which = "ser";
      ss >> which;
      EndConstraintPtr end =
          which == "si" ? SnapshotIsolationEnd()
          : which == "ser-nb"
              ? AndEnd({SerializabilityEnd(), NoBranchingEnd()})
              : SerializabilityEnd();
      Status s = txn_slot()->Commit(end);
      txn_slot().reset();
      if (s.ok()) {
        printf("committed as state %llu (%zu branch tip%s now)\n",
               static_cast<unsigned long long>(
                   session()->last_commit()->id()),
               store->dag()->Leaves().size(),
               store->dag()->Leaves().size() == 1 ? "" : "s");
      } else {
        printf("commit failed: %s\n", s.ToString().c_str());
      }
    } else if (cmd == "abort") {
      if (!NeedTxn()) return;
      txn_slot()->Abort();
      txn_slot().reset();
      printf("aborted\n");
    } else if (cmd == "forks") {
      if (!NeedTxn()) return;
      auto forks = txn_slot()->FindForkPoints(txn_slot()->parents());
      if (!forks.ok()) {
        printf("%s\n", forks.status().ToString().c_str());
        return;
      }
      printf("fork points:");
      for (StateId f : *forks) {
        printf(" %llu", static_cast<unsigned long long>(f));
      }
      printf("\n");
    } else if (cmd == "conflicts") {
      if (!NeedTxn()) return;
      auto conflicts = txn_slot()->FindConflictWrites(txn_slot()->parents());
      if (!conflicts.ok()) {
        printf("%s\n", conflicts.status().ToString().c_str());
        return;
      }
      printf("conflicting keys:");
      for (const std::string& k : *conflicts) printf(" %s", k.c_str());
      printf("\n");
    } else if (cmd == "getat") {
      if (!NeedTxn()) return;
      std::string key;
      unsigned long long sid = 0;
      ss >> key >> sid;
      std::string value;
      Status s = txn_slot()->GetForId(key, sid, &value);
      if (s.ok()) printf("%s @%llu = %s\n", key.c_str(), sid, value.c_str());
      else printf("%s\n", s.ToString().c_str());
    } else if (cmd == "dag") {
      printf("%s", store->dag()->DebugString().c_str());
    } else if (cmd == "dot") {
      printf("%s", store->dag()->ToDot().c_str());
    } else if (cmd == "gc") {
      store->PlaceCeiling(session());
      GcStats stats = store->RunGarbageCollection();
      printf("gc: deleted %llu states, pruned %llu versions (%zu states "
             "remain)\n",
             static_cast<unsigned long long>(stats.states_deleted),
             static_cast<unsigned long long>(stats.versions_pruned),
             store->dag()->state_count());
    } else if (cmd == "stats") {
      const obs::MetricsRegistry& m = *store->metrics();
      printf("commits=%llu aborts=%llu read-only=%llu branches=%llu "
             "merges=%llu remote=%llu\n",
             static_cast<unsigned long long>(
                 m.CounterTotal("tardis_txn_commits_total")),
             static_cast<unsigned long long>(
                 m.CounterTotal("tardis_txn_aborts_total")),
             static_cast<unsigned long long>(
                 m.CounterTotal("tardis_txn_read_only_commits_total")),
             static_cast<unsigned long long>(
                 m.CounterTotal("tardis_txn_forks_total")),
             static_cast<unsigned long long>(
                 m.CounterTotal("tardis_txn_merges_total")),
             static_cast<unsigned long long>(
                 m.CounterTotal("tardis_txn_remote_applied_total")));
      printf("states=%zu leaves=%zu keys=%zu versions=%zu\n",
             store->dag()->state_count(), store->dag()->Leaves().size(),
             store->kvmap()->key_count(), store->kvmap()->version_count());
    } else if (cmd == "quit" || cmd == "exit") {
      exit(0);
    } else {
      printf("unknown command: %s (try `help`)\n", cmd.c_str());
    }
  }
};

/// Remote mode: the REPL front-end over TardisClient, which owns the one
/// retry/backoff/failover implementation for the line protocol. Knows
/// which commands produce END-terminated multi-line replies so the REPL
/// prints them whole instead of one line per prompt.
struct RemoteShell {
  std::unique_ptr<client::TardisClient> cli;

  bool Connect(const std::string& endpoints_csv, uint64_t stale_reads_ms) {
    client::TardisClientOptions opt;
    std::stringstream ss(endpoints_csv);
    std::string ep;
    while (std::getline(ss, ep, ',')) {
      if (!ep.empty()) opt.endpoints.push_back(ep);
    }
    opt.stale_reads_ms = stale_reads_ms;
    cli = std::make_unique<client::TardisClient>(std::move(opt));
    std::string reply;
    Status s = cli->Call("ping", &reply);
    if (!s.ok()) {
      fprintf(stderr, "connect %s: %s\n", endpoints_csv.c_str(),
              s.ToString().c_str());
      return false;
    }
    return true;
  }

  /// Sends one command, prints the full reply. Returns false when the
  /// REPL should exit.
  bool Execute(const std::string& line) {
    std::stringstream ss(line);
    std::string cmd;
    if (!(ss >> cmd)) return true;
    const bool multi_line = cmd == "health" || cmd == "metrics" ||
                            cmd == "stats" || cmd == "merge" || cmd == "sync";
    std::string reply;
    const Status s =
        multi_line ? cli->CallMulti(line, &reply) : cli->Call(line, &reply);
    if (!s.ok()) {
      // The client already retried to its deadline; the session survives,
      // so a later command simply reconnects.
      printf("ERR %s\n", s.ToString().c_str());
      return !(cmd == "quit" || cmd == "shutdown");
    }
    if (!reply.empty()) printf("%s\n", reply.c_str());
    if (multi_line && reply.compare(0, 4, "ERR ") != 0) printf("END\n");
    return !(cmd == "quit" || cmd == "shutdown");
  }
};

const char* kDemoScript[] = {
    // A shared prefix...
    "session alice", "begin", "put page neutral", "commit",
    // ...then two transactions interleave: both read `page` from the same
    // state, both write it, both commit. The second commit forks.
    "session alice", "begin", "get page",
    "session bruno", "begin", "get page",
    "session alice", "put page FOR", "commit",
    "session bruno", "put page AGAINST", "commit",
    "dag",
    // Each session still reads its own value (inter-branch isolation).
    "session alice", "begin", "get page", "abort",
    "session bruno", "begin", "get page", "abort",
    // A moderator merges the branches with full context.
    "session moderator", "merge", "forks", "conflicts",
    "getat page 1", "put page disputed", "commit",
    "dag", "gc", "stats",
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && strncmp(argv[1], "--connect", 9) == 0) {
    std::string endpoint;
    if (strncmp(argv[1], "--connect=", 10) == 0) {
      endpoint = argv[1] + 10;
    } else if (argc > 2) {
      endpoint = argv[2];
    }
    uint64_t stale_reads_ms = 0;
    for (int i = 2; i < argc; i++) {
      if (strncmp(argv[i], "--stale-reads-ms=", 17) == 0) {
        stale_reads_ms = strtoull(argv[i] + 17, nullptr, 10);
      }
    }
    if (endpoint.empty()) {
      fprintf(stderr,
              "usage: tardis_shell --connect host:port[,host:port...] "
              "[--stale-reads-ms=N]\n");
      return 2;
    }
    RemoteShell remote;
    if (!remote.Connect(endpoint, stale_reads_ms)) return 1;
    printf("TARDiS shell — connected to %s (remote line protocol with "
           "session retries/failover; try `health`).\n",
           endpoint.c_str());
    std::string line;
    while (true) {
      printf("tardis> ");
      fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      if (line.empty()) continue;
      if (!remote.Execute(line)) break;
    }
    return 0;
  }

  auto store_or = TardisStore::Open(TardisOptions{});
  if (!store_or.ok()) {
    fprintf(stderr, "open failed: %s\n",
            store_or.status().ToString().c_str());
    return 1;
  }
  Shell shell;
  shell.store = std::move(*store_or);

  if (argc > 1 && strcmp(argv[1], "--demo") == 0) {
    for (const char* line : kDemoScript) {
      printf("tardis> %s\n", line);
      shell.Execute(line);
    }
    return 0;
  }

  printf("TARDiS shell — `help` for commands, `--demo` for a scripted "
         "tour.\n");
  std::string line;
  while (true) {
    printf("tardis> ");
    fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    shell.Execute(line);
  }
  return 0;
}
