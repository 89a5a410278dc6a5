// LineConnection: one blocking connection speaking the tardisd line
// protocol — connect with a deadline, send a request line, read its
// reply. TardisClient runs its retry, failover and session logic on top
// of one; the router holds one per partition and tardisd's 2PC resolver
// dials one per peer query.
//
// Any IO failure or missed deadline closes the connection: a late reply
// would otherwise be read as the answer to the next request. The caller
// reconnects to retry. Not thread-safe: one connection per caller thread.

#ifndef TARDIS_CLIENT_LINE_CONNECTION_H_
#define TARDIS_CLIENT_LINE_CONNECTION_H_

#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace tardis {
namespace client {

class LineConnection {
 public:
  LineConnection() = default;
  ~LineConnection();

  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  /// Dials `endpoint` ("host:port"), giving up at deadline_ms
  /// (NowMillis() scale). Any open connection is closed first.
  Status Connect(const std::string& endpoint, uint64_t deadline_ms);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends `line` and reads its reply by deadline_ms: one line, or with
  /// `multi` every line up to the END terminator (dropped). A multi-line
  /// request answered with a single ERR line (shed, malformed) returns
  /// that line. When `floors` is set, a leading `*F` floor token on the
  /// reply is stripped and its floors merged into *floors. *sent, when
  /// set, reports whether any request byte left the socket (an unsafe
  /// request's outcome is unknown after that).
  Status Call(const std::string& line, bool multi, uint64_t deadline_ms,
              std::string* reply, bool* sent = nullptr,
              std::map<uint32_t, uint64_t>* floors = nullptr);

 private:
  Status ReadLine(uint64_t deadline_ms, std::string* line);

  int fd_ = -1;
  std::string inbuf_;
};

}  // namespace client
}  // namespace tardis

#endif  // TARDIS_CLIENT_LINE_CONNECTION_H_
