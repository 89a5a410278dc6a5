// tardis-router: the stateless front-end of a partitioned TARDiS cluster
// (src/cluster/, DESIGN.md §10). Clients connect with the same line
// protocol tardisd speaks; the router hashes each key through the
// cluster's PartitionMap and forwards commands to the owning partition's
// coordination port — single-partition work on the fast path, multi-
// partition writes through fork-on-conflict 2PC.
//
// Usage:
//   tardis-router --port=P --partitions=host:port,host:port,...
//                 [--splits=S1,S2,...] [--metrics-port=P]
//                 [--call-timeout-ms=MS] [--txn-deadline-ms=MS]
//                 [--trace-sample=N] [--help]
//
// --partitions lists one coordination endpoint per partition, indexed by
// partition id (each endpoint is a tardisd started with --coord-port,
// which serves the same line protocol; the router adds the `*T` trace
// header and sends 2PC as prepare/decide lines).
// Without --splits the hash ring is divided uniformly; with it, the
// N-1 comma-separated split points define the N ranges explicitly.
//
// The router keeps no durable state: kill it at any moment and restart
// it (or a replacement) on the same flags — in-flight 2PC transactions
// are finished by the participants' cooperative termination, and no
// acknowledged write is lost (asserted by the grid e2e).
//
// Clients are served by server::LineServer with one worker, which runs
// commands one at a time (cluster::Router is single-threaded). The queue
// bound and request deadline are tardisd's defaults: a full queue answers
// "ERR BUSY", a request that waited over 1 s "ERR DEADLINE", both
// retryable. SIGTERM drains: in-flight commands (a 2PC included) finish
// and are answered, then the router exits 0.

#include <string.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/line_server.h"
#include "util/socket.h"

namespace tardis {
namespace {

struct RouterConfig {
  uint16_t port = 0;
  uint16_t metrics_port = 0;
  std::vector<std::string> partitions;  // coord endpoints by partition id
  std::vector<uint64_t> splits;
  uint64_t call_timeout_ms = 2000;
  uint64_t txn_deadline_ms = 4000;
  /// Head-based sampling: every Nth client request without its own trace
  /// header starts a new sampled trace (0 = off).
  uint64_t trace_sample = 0;
  bool help = false;
};

bool ParseFlags(int argc, char** argv, RouterConfig* config) {
  // Millisecond flags stay far from overflowing a NowMillis() sum.
  constexpr uint64_t kMaxMs = UINT32_MAX;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    // A numeric flag must be decimal within [lo, hi]; anything else is a
    // usage error rather than a silently wrapped or truncated setting.
    bool ok = true;
    if (const char* v = value("--port=")) {
      ok = ParsePort(v, &config->port);
    } else if (const char* v = value("--metrics-port=")) {
      ok = ParsePort(v, &config->metrics_port);
    } else if (const char* v = value("--partitions=")) {
      std::stringstream ss(v);
      std::string entry;
      while (std::getline(ss, entry, ',')) config->partitions.push_back(entry);
    } else if (const char* v = value("--splits=")) {
      std::stringstream ss(v);
      std::string entry;
      while (ok && std::getline(ss, entry, ',')) {
        uint64_t split = 0;
        ok = ParseUint(entry, 0, UINT64_MAX, &split);
        config->splits.push_back(split);
      }
    } else if (const char* v = value("--call-timeout-ms=")) {
      ok = ParseUint(v, 1, kMaxMs, &config->call_timeout_ms);
    } else if (const char* v = value("--txn-deadline-ms=")) {
      ok = ParseUint(v, 1, kMaxMs, &config->txn_deadline_ms);
    } else if (const char* v = value("--trace-sample=")) {
      ok = ParseUint(v, 0, UINT64_MAX, &config->trace_sample);
    } else if (arg == "--help" || arg == "-h") {
      config->help = true;
      return false;
    } else {
      fprintf(stderr, "tardis-router: unknown flag %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      fprintf(stderr, "tardis-router: bad value in %s\n", arg.c_str());
      return false;
    }
  }
  return config->port != 0 && !config->partitions.empty();
}

int RunRouter(const RouterConfig& config) {
  // Label this process's rows in a stitched cross-process Chrome trace.
  obs::Tracer::Get().SetProcessLabel("tardis-router");
  obs::MetricsRegistry registry;

  cluster::PartitionMap map = cluster::PartitionMap::Uniform(
      static_cast<uint32_t>(config.partitions.size()));
  if (!config.splits.empty()) {
    auto custom = cluster::PartitionMap::FromSplitPoints(config.splits);
    if (!custom.ok()) {
      fprintf(stderr, "tardis-router: --splits: %s\n",
              custom.status().ToString().c_str());
      return 1;
    }
    if (custom->partition_count() != config.partitions.size()) {
      fprintf(stderr,
              "tardis-router: %zu split points define %u partitions but "
              "--partitions names %zu endpoints\n",
              config.splits.size(), custom->partition_count(),
              config.partitions.size());
      return 1;
    }
    map = std::move(*custom);
  }

  cluster::RouterOptions router_options;
  router_options.coord_endpoints = config.partitions;
  router_options.call_timeout_ms = config.call_timeout_ms;
  router_options.txn_deadline_ms = config.txn_deadline_ms;
  router_options.trace_sample = config.trace_sample;
  cluster::Router router(std::move(map), std::move(router_options),
                         &registry);

  std::unique_ptr<obs::MetricsHttpExporter> metrics_http;
  if (config.metrics_port != 0) {
    metrics_http = std::make_unique<obs::MetricsHttpExporter>(
        config.metrics_port, &registry, "tardis-router");
    if (!metrics_http->serving()) return 1;
  }

  // The queue bound and request deadline stay at LineServerOptions'
  // defaults, which are tardisd's. One worker is what keeps
  // cluster::Router single-threaded.
  server::LineServerOptions serve_options;
  serve_options.port = config.port;
  serve_options.workers = 1;
  server::LineServer server(serve_options, [&router] {
    return [&router](const server::LineRequest& req) {
      server::LineReply reply;
      reply.text = router.Handle(req.line, &reply.close_conn);
      return reply;
    };
  });
  Status listen_status = server.Listen();
  if (!listen_status.ok()) {
    fprintf(stderr, "tardis-router: %s\n", listen_status.ToString().c_str());
    return 1;
  }
  router.BindServingMetrics(&server);
  server.DrainOnTermSignals();

  printf("tardis-router: serving %zu partition(s) on port %u%s\n",
         config.partitions.size(), config.port,
         config.metrics_port != 0 ? ", metrics via http" : "");
  fflush(stdout);
  server.Run();
  return 0;
}

}  // namespace
}  // namespace tardis

int main(int argc, char** argv) {
  tardis::RouterConfig config;
  if (!tardis::ParseFlags(argc, argv, &config)) {
    FILE* out = config.help ? stdout : stderr;
    fprintf(out,
            "usage: tardis-router --port=P --partitions=host:port,...\n"
            "                     [--splits=S1,S2,...] [--metrics-port=P]\n"
            "                     [--call-timeout-ms=MS]\n"
            "                     [--txn-deadline-ms=MS] [--trace-sample=N]\n"
            "                     [--help]\n"
            "--partitions names each partition's tardisd coordination\n"
            "endpoint (--coord-port), indexed by partition id; --splits\n"
            "optionally sets explicit hash-ring split points (N-1 values\n"
            "for N partitions; default uniform). --txn-deadline-ms must\n"
            "stay below every participant's --twopc-resolve-ms.\n"
            "--trace-sample samples every Nth request into the tracer once\n"
            "`trace start` has enabled it (0 = off). Numeric flags take\n"
            "unsigned decimals; a malformed value is a usage error.\n"
            "One worker runs the commands in order; a full queue answers\n"
            "ERR BUSY and a request queued over 1 s ERR DEADLINE (retry).\n"
            "SIGTERM or SIGINT drains: in-flight commands finish and are\n"
            "answered, new ones get ERR SHUTTING_DOWN, then exit 0.\n");
    return config.help ? 0 : 2;
  }
  return tardis::RunRouter(config);
}
