#include "client/line_connection.h"

#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "core/session.h"
#include "util/clock.h"
#include "util/socket.h"

namespace tardis {
namespace client {

namespace {

void SetSocketTimeouts(int fd, uint64_t ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

LineConnection::~LineConnection() { Close(); }

void LineConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

Status LineConnection::Connect(const std::string& endpoint,
                               uint64_t deadline_ms) {
  Close();
  std::string host;
  uint16_t port = 0;
  TARDIS_RETURN_IF_ERROR(ParseEndpoint(endpoint, &host, &port));

  addrinfo hints;
  memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return Status::IOError("resolve " + host);
  }
  const int fd = socket(res->ai_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    freeaddrinfo(res);
    return Status::IOError("socket: " + std::string(strerror(errno)));
  }
  // Nonblocking connect so the attempt honors the deadline instead of the
  // kernel's default.
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = connect(fd, res->ai_addr, static_cast<socklen_t>(res->ai_addrlen));
  freeaddrinfo(res);
  if (rc != 0 && errno != EINPROGRESS) {
    const Status s =
        Status::IOError("connect " + endpoint + ": " + strerror(errno));
    ::close(fd);
    return s;
  }
  if (rc != 0) {
    const uint64_t now = NowMillis();
    const uint64_t budget = deadline_ms > now ? deadline_ms - now : 0;
    pollfd pfd{fd, POLLOUT, 0};
    rc = poll(&pfd, 1, static_cast<int>(std::max<uint64_t>(budget, 1)));
    int err = 0;
    socklen_t len = sizeof(err);
    if (rc <= 0 ||
        getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return Status::IOError("connect " + endpoint + ": " +
                             (rc <= 0 ? "timeout" : strerror(err)));
    }
  }
  fcntl(fd, F_SETFL, flags);  // back to blocking; SO_*TIMEO bound the IO
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

Status LineConnection::ReadLine(uint64_t deadline_ms, std::string* line) {
  size_t nl;
  while ((nl = inbuf_.find('\n')) == std::string::npos) {
    const uint64_t now = NowMillis();
    if (now >= deadline_ms) {
      Close();  // a late reply would desynchronize the stream
      return Status::Unavailable("reply deadline expired");
    }
    SetSocketTimeouts(fd_, deadline_ms - now);
    char chunk[65536];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      inbuf_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Close();
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::Unavailable("reply deadline expired");
    }
    return Status::IOError("connection lost");
  }
  *line = inbuf_.substr(0, nl);
  inbuf_.erase(0, nl + 1);
  return Status::OK();
}

Status LineConnection::Call(const std::string& line, bool multi,
                            uint64_t deadline_ms, std::string* reply,
                            bool* sent,
                            std::map<uint32_t, uint64_t>* floors) {
  if (fd_ < 0) return Status::IOError("not connected");
  {
    const uint64_t now = NowMillis();
    if (now >= deadline_ms) return Status::Unavailable("deadline expired");
    SetSocketTimeouts(fd_, deadline_ms - now);
  }
  const std::string framed = line + "\n";
  size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      if (sent != nullptr) *sent = true;
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Close();
    return Status::IOError("send: " + std::string(strerror(errno)));
  }
  std::string first;
  TARDIS_RETURN_IF_ERROR(ReadLine(deadline_ms, &first));
  if (floors != nullptr) StripFloorToken(&first, floors);
  // Multi-line commands answer a single line when rejected before
  // execution (shed, malformed).
  if (!multi || first == "END" || first.compare(0, 3, "ERR") == 0) {
    *reply = first == "END" ? std::string() : first;
    return Status::OK();
  }
  std::string body = first;
  while (true) {
    std::string l;
    TARDIS_RETURN_IF_ERROR(ReadLine(deadline_ms, &l));
    if (l == "END") break;
    body += "\n";
    body += l;
  }
  *reply = body;
  return Status::OK();
}

}  // namespace client
}  // namespace tardis
