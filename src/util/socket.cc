#include "util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tardis {

StatusOr<TcpListener> ListenTcp(const std::string& host, uint16_t port,
                                bool blocking) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError("socket: " + std::string(strerror(errno)));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    addr.sin_addr.s_addr = INADDR_ANY;
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 64) != 0) {
    Status s = Status::IOError("port " + std::to_string(port) + ": " +
                               strerror(errno));
    close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status s = Status::IOError("getsockname: " + std::string(strerror(errno)));
    close(fd);
    return s;
  }
  if (!blocking) SetNonBlocking(fd);
  return TcpListener{fd, ntohs(addr.sin_port)};
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool ParseUint(std::string_view text, uint64_t lo, uint64_t hi,
               uint64_t* value) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // overflow
    v = v * 10 + digit;
  }
  if (v < lo || v > hi) return false;
  *value = v;
  return true;
}

bool ParsePort(std::string_view text, uint16_t* port) {
  uint64_t v = 0;
  if (!ParseUint(text, 1, 65535, &v)) return false;
  *port = static_cast<uint16_t>(v);
  return true;
}

Status ParseEndpoint(std::string_view endpoint, std::string* host,
                     uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      !ParsePort(endpoint.substr(colon + 1), port)) {
    return Status::InvalidArgument("endpoint must be host:port, got \"" +
                                   std::string(endpoint) + "\"");
  }
  *host = std::string(endpoint.substr(0, colon));
  return Status::OK();
}

}  // namespace tardis
