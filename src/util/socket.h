// TCP listen-socket set-up and flag/endpoint parsing shared by every
// server in the tree: the line-protocol server (tardisd's client and
// coordination ports and the router), the replication transport and the
// metrics HTTP exporter.

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

/// Parses a numeric flag value: decimal digits only, within [lo, hi].
/// Anything else (empty, signed, trailing junk, out of range, overflow)
/// returns false and leaves *value alone, so a typo cannot wrap or
/// truncate to another setting.
bool ParseUint(std::string_view text, uint64_t lo, uint64_t hi,
               uint64_t* value);

/// ParseUint's TCP port case: 1..65535.
bool ParsePort(std::string_view text, uint16_t* port);

/// Splits "host:port" (the last ':' wins, so bare IPv6 is not supported).
/// InvalidArgument when the host is empty or the port fails ParsePort.
Status ParseEndpoint(std::string_view endpoint, std::string* host,
                     uint16_t* port);

}  // namespace tardis

#endif  // TARDIS_UTIL_SOCKET_H_
