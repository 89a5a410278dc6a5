#include "cluster/coord_server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "net/wire.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/socket.h"

namespace tardis {
namespace cluster {

namespace {

struct Conn {
  int fd = -1;
  std::string inbuf;
  std::string outbuf;
  size_t out_off = 0;
};

/// A hostile peer cannot buffer unbounded bytes: wire frames are already
/// capped at kMaxWirePayload, so anything past one max frame plus header
/// is a protocol violation.
constexpr size_t kMaxInbuf = kMaxWirePayload + kWireHeaderBytes;

}  // namespace

StatusOr<std::unique_ptr<CoordServer>> CoordServer::Start(
    TardisStore* store, TwoPhaseParticipant* participant,
    CoordServerOptions options) {
  std::unique_ptr<CoordServer> server(
      new CoordServer(store, participant, std::move(options)));
  Status s = server->Listen();
  if (!s.ok()) return s;
  server->stop_.store(false);
  server->thread_ = std::thread([raw = server.get()] { raw->Serve(); });
  return server;
}

CoordServer::CoordServer(TardisStore* store, TwoPhaseParticipant* participant,
                         CoordServerOptions options)
    : store_(store), participant_(participant), options_(std::move(options)) {}

CoordServer::~CoordServer() { Shutdown(); }

void CoordServer::Shutdown() {
  if (stop_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status CoordServer::Listen() {
  auto listener = ListenTcp("", options_.port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener->fd;
  listen_port_ = listener->port;
  return Status::OK();
}

std::string CoordServer::ApplyWriteSet(const ReplMessage& req) {
  // Exactly-once: a retried sessioned write answers from the dedup table
  // with the original commit's state instead of re-executing.
  if (req.session_id != 0) {
    GlobalStateId prior;
    if (store_->session_dedup()->Lookup(req.session_id, req.session_seq,
                                        &prior)) {
      return "OK STATE " + prior.ToString();
    }
  }
  auto session = store_->CreateSession();
  auto txn = store_->Begin(session.get());
  if (!txn.ok()) return "ERR " + txn.status().ToString();
  (*txn)->SetSessionTag(req.session_id, req.session_seq);
  for (const auto& [key, value] : req.commit.writes) {
    const Slice v = value ? Slice(*value) : Slice();
    Status s = (*txn)->Put(key, v);
    if (!s.ok()) {
      (*txn)->Abort();
      return "ERR " + s.ToString();
    }
  }
  Status s = (*txn)->Commit();
  if (!s.ok()) return "ERR " + s.ToString();
  if (req.session_id != 0 && session->last_commit() != nullptr) {
    return "OK STATE " + session->last_commit()->guid().ToString();
  }
  return "OK";
}

void CoordServer::Dispatch(const ReplMessage& req, ReplMessage* reply) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Adopt the frame's trace context for the whole dispatch: the store /
  // 2PC / replication work below runs on this thread, so its spans (and
  // any frames it sends onward) join the router's trace.
  obs::TraceContext ctx{req.trace_id, req.trace_span, req.trace_sampled};
  obs::TraceContextScope bind(ctx);
  Status s;
  switch (req.type) {
    case ReplMessage::Type::kRoute: {
      TARDIS_TRACE_SPAN("coord", "route");
      reply->type = ReplMessage::Type::kRouteReply;
      reply->txn_id = req.txn_id;
      if (!req.commit.writes.empty()) {
        reply->text = ApplyWriteSet(req);
      } else if (options_.execute) {
        reply->text = options_.execute(req.text);
      } else {
        reply->text = "ERR no command executor";
      }
      return;
    }
    case ReplMessage::Type::kPrepare: {
      TARDIS_TRACE_SPAN("coord", "prepare");
      s = participant_->HandlePrepare(req, reply);
      break;
    }
    case ReplMessage::Type::kDecide: {
      TARDIS_TRACE_SPAN("coord", "decide");
      s = participant_->HandleDecide(req, reply);
      break;
    }
    case ReplMessage::Type::kTxnStatus:
      s = participant_->HandleTxnStatus(req, reply);
      break;
    default:
      s = Status::InvalidArgument("unexpected coordination frame");
      break;
  }
  if (!s.ok()) {
    // Always answer: the router's deadline handling is simpler when
    // errors come back as frames instead of silence.
    reply->type = ReplMessage::Type::kRouteReply;
    reply->txn_id = req.txn_id;
    reply->text = "ERR " + s.ToString();
  }
}

void CoordServer::Serve() {
  std::vector<Conn> conns;
  uint64_t next_resolve_ms =
      options_.resolve_interval_ms == 0
          ? 0
          : NowMillis() + options_.resolve_interval_ms;
  while (!stop_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> pfds;
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const Conn& c : conns) {
      short events = POLLIN;
      if (c.out_off < c.outbuf.size()) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
    }
    const int rc = poll(pfds.data(), pfds.size(), 100);
    if (rc < 0 && errno != EINTR) {
      TARDIS_WARN("coord: poll: %s", strerror(errno));
    }

    if (pfds[0].revents & POLLIN) {
      while (true) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        SetNonBlocking(fd);
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Conn c;
        c.fd = fd;
        conns.push_back(std::move(c));
      }
    }

    std::vector<size_t> dead;
    // pfds was built before this round's accepts, so only the first
    // pfds.size()-1 connections have poll results; connections accepted
    // above are picked up by the next poll.
    for (size_t i = 0; i + 1 < pfds.size(); i++) {
      Conn& c = conns[i];
      const short revents = pfds[i + 1].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        dead.push_back(i);
        continue;
      }
      if (revents & POLLIN) {
        char buf[65536];
        bool eof = false;
        while (true) {
          const ssize_t n = read(c.fd, buf, sizeof(buf));
          if (n > 0) {
            c.inbuf.append(buf, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          eof = true;
          break;
        }
        bool corrupt = c.inbuf.size() > kMaxInbuf;
        while (!corrupt) {
          ReplMessage req;
          size_t consumed = 0;
          Status s = DecodeFrame(Slice(c.inbuf), &req, &consumed);
          if (!s.ok()) {
            corrupt = true;
            break;
          }
          if (consumed == 0) break;  // incomplete frame, wait for bytes
          c.inbuf.erase(0, consumed);
          ReplMessage reply;
          Dispatch(req, &reply);
          EncodeFrame(reply, &c.outbuf);
        }
        if (corrupt || (eof && c.out_off >= c.outbuf.size())) {
          dead.push_back(i);
          continue;
        }
      } else if (revents & POLLHUP) {
        if (c.out_off >= c.outbuf.size()) {
          dead.push_back(i);
          continue;
        }
      }
      while (c.out_off < c.outbuf.size()) {
        const ssize_t n = write(c.fd, c.outbuf.data() + c.out_off,
                                c.outbuf.size() - c.out_off);
        if (n > 0) {
          c.out_off += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        dead.push_back(i);
        break;
      }
      if (c.out_off >= c.outbuf.size()) {
        c.outbuf.clear();
        c.out_off = 0;
      }
    }
    // Close back-to-front so indices stay valid; dead is ascending and
    // may hold duplicates for a connection that failed twice above.
    for (size_t j = dead.size(); j-- > 0;) {
      const size_t i = dead[j];
      if (j + 1 < dead.size() && dead[j + 1] == i) continue;
      ::close(conns[i].fd);
      conns.erase(conns.begin() + static_cast<long>(i));
    }

    if (next_resolve_ms != 0 && NowMillis() >= next_resolve_ms) {
      participant_->ResolveInDoubt();
      next_resolve_ms = NowMillis() + options_.resolve_interval_ms;
    }
  }
  for (Conn& c : conns) ::close(c.fd);
}

}  // namespace cluster
}  // namespace tardis
