// TCP listen-socket set-up and port-flag parsing shared by every server in
// the tree: the line-protocol server (tardisd's client port and the
// router), the cluster coordination server, the replication transport and
// the metrics HTTP exporter.

#ifndef TARDIS_UTIL_SOCKET_H_
#define TARDIS_UTIL_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace tardis {

struct TcpListener {
  int fd = -1;        ///< the listening socket; the caller closes it
  uint16_t port = 0;  ///< the bound port (the kernel's pick when 0 was asked)
};

/// Opens a listening TCP socket: socket, SO_REUSEADDR, bind, listen and
/// getsockname, then O_NONBLOCK unless `blocking`. `host` is a dotted IPv4
/// address to bind; empty (or not an address) binds every interface. Port
/// 0 binds an ephemeral port. On failure nothing stays open.
StatusOr<TcpListener> ListenTcp(const std::string& host, uint16_t port,
                                bool blocking = false);

/// Sets O_NONBLOCK on `fd` (a failed fcntl leaves it blocking).
void SetNonBlocking(int fd);

/// Parses a TCP port flag value: decimal digits only, 1..65535. Anything
/// else (empty, signed, trailing junk, 0, out of range) returns false and
/// leaves *port alone, so a typo cannot wrap to another port.
bool ParsePort(std::string_view text, uint16_t* port);

}  // namespace tardis

#endif  // TARDIS_UTIL_SOCKET_H_
