#include "obs/http_exporter.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

#include "obs/exposition.h"
#include "util/socket.h"

namespace tardis {
namespace obs {

MetricsHttpExporter::MetricsHttpExporter(uint16_t port,
                                         const MetricsRegistry* registry,
                                         const std::string& who)
    : registry_(registry) {
  auto listener = ListenTcp("", port, /*blocking=*/true);
  if (!listener.ok()) {
    fprintf(stderr, "%s: metrics endpoint: %s\n", who.c_str(),
            listener.status().ToString().c_str());
    return;
  }
  fd_ = listener->fd;
  serving_ = true;
  thread_ = std::thread([this] { Serve(); });
}

MetricsHttpExporter::~MetricsHttpExporter() {
  stop_.store(true);
  if (fd_ >= 0) {
    // shutdown() unblocks the accept; some platforms need the close too.
    ::shutdown(fd_, SHUT_RDWR);
    close(fd_);
  }
  if (thread_.joinable()) thread_.join();
}

void MetricsHttpExporter::Serve() {
  while (!stop_.load()) {
    const int conn = accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed: shutting down
    }
    char buf[4096];
    (void)read(conn, buf, sizeof(buf));  // request line + headers, ignored
    const std::string body = RenderPrometheus(registry_->Collect());
    std::string resp =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    (void)write(conn, resp.data(), resp.size());
    close(conn);
  }
}

}  // namespace obs
}  // namespace tardis
