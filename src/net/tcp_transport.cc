#include "net/tcp_transport.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fault/fault_points.h"
#include "fault/fault_registry.h"
#include "net/wire.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/socket.h"

namespace tardis {

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::TcpTransport(const TcpTransportOptions& options)
    : options_(options), num_sites_(options.peers.size() + 1) {
  outbound_.reserve(options_.peers.size());
  for (const TcpPeer& peer : options_.peers) {
    PeerConn pc;
    pc.peer = peer;
    pc.backoff =
        Backoff(options_.reconnect_initial_ms, options_.reconnect_max_ms);
    outbound_.push_back(std::move(pc));
  }
}

bool TcpTransport::IsKnownPeer(uint32_t site) const {
  for (const TcpPeer& peer : options_.peers) {
    if (peer.site == site) return true;
  }
  return false;
}

TcpTransport::~TcpTransport() { Shutdown(); }

StatusOr<std::unique_ptr<TcpTransport>> TcpTransport::Open(
    const TcpTransportOptions& options) {
  std::unique_ptr<TcpTransport> t(new TcpTransport(options));
  Status s = t->Listen();
  if (!s.ok()) return s;
  if (pipe(t->wake_pipe_) != 0) {
    return Status::IOError("pipe: " + std::string(strerror(errno)));
  }
  SetNonBlocking(t->wake_pipe_[0]);
  SetNonBlocking(t->wake_pipe_[1]);
  t->stop_.store(false);
  t->io_ = std::thread([raw = t.get()] { raw->IoLoop(); });
  return t;
}

Status TcpTransport::Listen() {
  auto listener = ListenTcp(options_.listen_host, options_.listen_port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener->fd;
  listen_port_ = listener->port;
  return Status::OK();
}

void TcpTransport::Shutdown() {
  if (stop_.exchange(true)) return;
  Wake();
  if (io_.joinable()) io_.join();
  std::lock_guard<std::mutex> guard(mu_);
  for (PeerConn& pc : outbound_) {
    if (pc.fd >= 0) close(pc.fd);
    pc.fd = -1;
    pc.connected = pc.connecting = false;
  }
  for (InboundConn& ic : inbound_) {
    if (ic.fd >= 0) close(ic.fd);
  }
  inbound_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
}

void TcpTransport::Wake() {
  if (wake_pipe_[1] >= 0) {
    const char b = 1;
    ssize_t ignored = write(wake_pipe_[1], &b, 1);
    (void)ignored;
  }
}

bool TcpTransport::IsConnected(uint32_t site) const {
  std::lock_guard<std::mutex> guard(mu_);
  for (const PeerConn& pc : outbound_) {
    if (pc.peer.site == site) return pc.handshaked;
  }
  return false;
}

void TcpTransport::Send(uint32_t from, uint32_t to, ReplMessage msg) {
  if (from != options_.site_id || to == from) return;
  msg.from_site = from;
  std::string frame;
  EncodeFrame(msg, &frame);
  EnqueueEncoded(to, frame);
}

void TcpTransport::Broadcast(uint32_t from, ReplMessage msg) {
  if (from != options_.site_id) return;
  msg.from_site = from;
  // Serialize once; every peer gets the same bytes.
  std::string frame;
  EncodeFrame(msg, &frame);
  for (const PeerConn& pc : outbound_) EnqueueEncoded(pc.peer.site, frame);
}

void TcpTransport::EnqueueEncoded(uint32_t to, const std::string& frame) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    PeerConn* pc = nullptr;
    for (PeerConn& cand : outbound_) {
      if (cand.peer.site == to) {
        pc = &cand;
        break;
      }
    }
    if (pc == nullptr) return;  // unknown destination, like SimNetwork
    if (partitioned_.count(to) != 0 || pc->fd < 0 ||
        pc->sendbuf.size() - pc->sendbuf_off + frame.size() >
            options_.max_sendbuf_bytes) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    pc->sendbuf.append(frame);
    pc->frame_lens.push_back(frame.size());
    sent_.fetch_add(1, std::memory_order_relaxed);
  }
  Wake();
}

bool TcpTransport::Receive(uint32_t site, ReplMessage* msg) {
  if (site != options_.site_id) return false;
  std::lock_guard<std::mutex> guard(mu_);
  if (inbox_.empty()) return false;
  *msg = std::move(inbox_.front());
  inbox_.pop_front();
  delivered_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool TcpTransport::HasInflight() const {
  std::lock_guard<std::mutex> guard(mu_);
  if (!inbox_.empty()) return true;
  for (const PeerConn& pc : outbound_) {
    if (!pc.frame_lens.empty()) return true;
  }
  for (const InboundConn& ic : inbound_) {
    if (!ic.recvbuf.empty()) return true;
  }
  return false;
}

void TcpTransport::Partition(uint32_t a, uint32_t b) {
  std::lock_guard<std::mutex> guard(mu_);
  if (a == options_.site_id) partitioned_.insert(b);
  if (b == options_.site_id) partitioned_.insert(a);
}

void TcpTransport::Heal(uint32_t a, uint32_t b) {
  std::lock_guard<std::mutex> guard(mu_);
  if (a == options_.site_id) partitioned_.erase(b);
  if (b == options_.site_id) partitioned_.erase(a);
}

void TcpTransport::HealAll() {
  std::lock_guard<std::mutex> guard(mu_);
  partitioned_.clear();
}

void TcpTransport::StartConnect(PeerConn* pc, uint64_t now_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(pc->peer.port);
  if (getaddrinfo(pc->peer.host.c_str(), port.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    CloseOutbound(pc, now_ms);
    return;
  }
  const int fd = socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    freeaddrinfo(res);
    CloseOutbound(pc, now_ms);
    return;
  }
  SetNonBlocking(fd);
  SetNoDelay(fd);
  const int rc = connect(fd, res->ai_addr, res->ai_addrlen);
  freeaddrinfo(res);
  if (rc == 0 || errno == EINPROGRESS) {
    pc->fd = fd;
    pc->connecting = rc != 0;
    pc->connected = rc == 0;
    pc->handshaked = false;
    // The hello MUST be the first frame on the wire. The sendbuf is
    // guaranteed empty here (CloseOutbound clears it and EnqueueEncoded
    // drops while fd < 0), so appending is prepending.
    ReplMessage hello;
    hello.type = ReplMessage::Type::kHello;
    hello.from_site = options_.site_id;
    std::string frame;
    EncodeFrame(hello, &frame);
    pc->sendbuf.append(frame);
    pc->frame_lens.push_back(frame.size());
    // Note: the backoff is NOT reset here. A TCP connect can succeed
    // against a port that then rejects the handshake (wrong process, a
    // proxy, a half-dead peer); resetting on connect would hammer it at
    // the initial delay forever. Only the peer's kHelloAck resets it.
  } else {
    close(fd);
    CloseOutbound(pc, now_ms);
  }
}

void TcpTransport::CloseOutbound(PeerConn* pc, uint64_t now_ms) {
  if (pc->fd >= 0) close(pc->fd);
  pc->fd = -1;
  pc->connecting = false;
  pc->connected = false;
  pc->handshaked = false;
  // Anything still buffered will never reach the peer: gossip tolerates
  // the loss (anti-entropy re-fetches), so count and discard.
  dropped_.fetch_add(pc->frame_lens.size(), std::memory_order_relaxed);
  pc->sendbuf.clear();
  pc->sendbuf_off = 0;
  pc->frame_lens.clear();
  pc->recvbuf.clear();
  pc->backoff.Fail(now_ms);
}

void TcpTransport::FlushWrites(PeerConn* pc, uint64_t now_ms) {
  while (pc->sendbuf_off < pc->sendbuf.size()) {
    size_t want = pc->sendbuf.size() - pc->sendbuf_off;
    if (fault::FaultsArmed()) {
      // Short-write injection: a "net.tcp.send" kLimitWrite spec caps how
      // many bytes one send() may move, forcing the partial-frame resume
      // path that real kernels exercise under socket-buffer pressure.
      want = fault::FaultRegistry::Global().WriteCap("net.tcp.send", want);
    }
    const ssize_t n =
        send(pc->fd, pc->sendbuf.data() + pc->sendbuf_off, want, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_sent_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
      pc->sendbuf_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseOutbound(pc, now_ms);
    return;
  }
  // Retire fully written frames so drop accounting stays per-message.
  while (!pc->frame_lens.empty() && pc->frame_lens.front() <= pc->sendbuf_off) {
    const size_t len = pc->frame_lens.front();
    pc->frame_lens.pop_front();
    pc->sendbuf.erase(0, len);
    pc->sendbuf_off -= len;
  }
}

bool TcpTransport::DrainOutboundHandshake(PeerConn* pc) {
  size_t off = 0;
  while (true) {
    ReplMessage msg;
    size_t consumed = 0;
    Status s = DecodeFrame(
        Slice(pc->recvbuf.data() + off, pc->recvbuf.size() - off), &msg,
        &consumed);
    if (!s.ok()) {
      TARDIS_WARN("site %u: bad handshake bytes from site %u: %s",
                  options_.site_id, pc->peer.site, s.ToString().c_str());
      return false;
    }
    if (consumed == 0) break;  // incomplete frame, wait for more bytes
    off += consumed;
    if (msg.type != ReplMessage::Type::kHelloAck ||
        msg.from_site != pc->peer.site) {
      TARDIS_WARN("site %u: unexpected frame on dialed connection to site %u",
                  options_.site_id, pc->peer.site);
      return false;
    }
    if (!pc->handshaked) {
      pc->handshaked = true;
      // This is "the first valid frame from the peer": only now does the
      // reconnect backoff reset.
      pc->backoff.Reset();
      if (pc->ever_handshaked) {
        reconnects_.fetch_add(1, std::memory_order_relaxed);
      }
      pc->ever_handshaked = true;
    }
  }
  pc->recvbuf.erase(0, off);
  return true;
}

void TcpTransport::DrainInbound(InboundConn* ic) {
  size_t off = 0;
  while (true) {
    ReplMessage msg;
    size_t consumed = 0;
    Status s = DecodeFrame(
        Slice(ic->recvbuf.data() + off, ic->recvbuf.size() - off), &msg,
        &consumed);
    if (!s.ok()) {
      // Malformed bytes: this peer (or fuzzer) is speaking garbage.
      // Closing the connection is the whole defense — never crash.
      TARDIS_WARN("site %u: dropping inbound connection: %s",
                  options_.site_id, s.ToString().c_str());
      close(ic->fd);
      ic->fd = -1;
      ic->recvbuf.clear();
      return;
    }
    if (consumed == 0) break;  // incomplete frame, wait for more bytes
    off += consumed;
    if (!ic->identified) {
      // Handshake gate: the first frame must be a kHello from a known
      // peer; anything else is a stranger and is disconnected before any
      // payload is accepted.
      if (msg.type != ReplMessage::Type::kHello ||
          msg.from_site == options_.site_id || !IsKnownPeer(msg.from_site)) {
        TARDIS_WARN("site %u: dropping inbound connection: no valid hello",
                    options_.site_id);
        close(ic->fd);
        ic->fd = -1;
        ic->recvbuf.clear();
        return;
      }
      ic->identified = true;
      ic->peer_site = msg.from_site;
      ReplMessage ack;
      ack.type = ReplMessage::Type::kHelloAck;
      ack.from_site = options_.site_id;
      EncodeFrame(ack, &ic->sendbuf);
      continue;
    }
    if (msg.type == ReplMessage::Type::kHello ||
        msg.type == ReplMessage::Type::kHelloAck ||
        msg.from_site != ic->peer_site) {
      TARDIS_WARN("site %u: protocol violation from site %u; disconnecting",
                  options_.site_id, ic->peer_site);
      close(ic->fd);
      ic->fd = -1;
      ic->recvbuf.clear();
      return;
    }
    if (partitioned_.count(msg.from_site) != 0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      inbox_.push_back(std::move(msg));
    }
  }
  ic->recvbuf.erase(0, off);
}

void TcpTransport::FlushInboundWrites(InboundConn* ic) {
  while (ic->sendbuf_off < ic->sendbuf.size()) {
    const ssize_t n = send(ic->fd, ic->sendbuf.data() + ic->sendbuf_off,
                           ic->sendbuf.size() - ic->sendbuf_off, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_sent_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
      ic->sendbuf_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    close(ic->fd);  // peer went away mid-handshake
    ic->fd = -1;
    return;
  }
  ic->sendbuf.clear();
  ic->sendbuf_off = 0;
}

void TcpTransport::IoLoop() {
  std::vector<pollfd> pfds;
  // For pfds[i] (i >= 2): kind 0 = outbound index, kind 1 = inbound index.
  std::vector<std::pair<int, size_t>> index;

  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t now = NowMillis();
    int timeout_ms = 50;

    pfds.clear();
    index.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    pfds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> guard(mu_);
      for (size_t i = 0; i < outbound_.size(); i++) {
        PeerConn& pc = outbound_[i];
        if (pc.fd < 0) {
          if (pc.backoff.Due(now)) StartConnect(&pc, now);
          if (pc.fd < 0) {
            const uint64_t wait = pc.backoff.RemainingMs(now);
            timeout_ms = std::min<int>(timeout_ms, static_cast<int>(wait) + 1);
            continue;
          }
        }
        short events = POLLIN;  // detect peer close/reset
        if (pc.connecting || pc.sendbuf_off < pc.sendbuf.size()) {
          events |= POLLOUT;
        }
        pfds.push_back({pc.fd, events, 0});
        index.emplace_back(0, i);
      }
      for (size_t i = 0; i < inbound_.size(); i++) {
        short events = POLLIN;
        if (inbound_[i].sendbuf_off < inbound_[i].sendbuf.size()) {
          events |= POLLOUT;  // a kHelloAck is waiting to go out
        }
        pfds.push_back({inbound_[i].fd, events, 0});
        index.emplace_back(1, i);
      }
    }

    const int rc = poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      TARDIS_WARN("site %u: poll: %s", options_.site_id, strerror(errno));
    }
    if (stop_.load(std::memory_order_acquire)) break;

    if (pfds[0].revents & POLLIN) {  // drain wakeups
      char buf[64];
      while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }

    if (pfds[1].revents & POLLIN) {  // accept inbound connections
      while (true) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        SetNonBlocking(fd);
        SetNoDelay(fd);
        std::lock_guard<std::mutex> guard(mu_);
        InboundConn ic;
        ic.fd = fd;
        inbound_.push_back(std::move(ic));
      }
    }

    std::lock_guard<std::mutex> guard(mu_);
    const uint64_t after = NowMillis();
    for (size_t p = 2; p < pfds.size(); p++) {
      const auto [kind, i] = index[p - 2];
      const short revents = pfds[p].revents;
      if (revents == 0) continue;
      if (kind == 0) {
        PeerConn& pc = outbound_[i];
        if (pc.fd != pfds[p].fd) continue;  // replaced meanwhile
        if (pc.connecting && (revents & (POLLOUT | POLLERR | POLLHUP))) {
          int err = 0;
          socklen_t len = sizeof(err);
          getsockopt(pc.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            CloseOutbound(&pc, after);
            continue;
          }
          // TCP is up, but the peer has not vouched for itself yet; the
          // backoff stays armed until its kHelloAck arrives.
          pc.connecting = false;
          pc.connected = true;
        }
        if (revents & (POLLERR | POLLHUP)) {
          CloseOutbound(&pc, after);
          continue;
        }
        if (revents & POLLIN) {
          // The only legitimate inbound bytes on a dialed connection are
          // handshake replies; anything else (or EOF) closes it.
          bool closed = false;
          char buf[4096];
          while (true) {
            const ssize_t n = read(pc.fd, buf, sizeof(buf));
            if (n > 0) {
              bytes_received_.fetch_add(static_cast<uint64_t>(n),
                                        std::memory_order_relaxed);
              pc.recvbuf.append(buf, static_cast<size_t>(n));
              continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (n < 0 && errno == EINTR) continue;
            closed = true;
            break;
          }
          if (!pc.recvbuf.empty() && !DrainOutboundHandshake(&pc)) {
            CloseOutbound(&pc, after);
            continue;
          }
          if (closed) {
            CloseOutbound(&pc, after);
            continue;
          }
        }
        if (pc.connected && (revents & POLLOUT)) FlushWrites(&pc, after);
      } else {
        InboundConn& ic = inbound_[i];
        if (ic.fd != pfds[p].fd) continue;
        bool closed = false;
        char buf[65536];
        while (true) {
          const ssize_t n = read(ic.fd, buf, sizeof(buf));
          if (n > 0) {
            bytes_received_.fetch_add(static_cast<uint64_t>(n),
                                      std::memory_order_relaxed);
            ic.recvbuf.append(buf, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          closed = true;
          break;
        }
        if (!ic.recvbuf.empty()) DrainInbound(&ic);
        // Push the hello-ack out eagerly (or on POLLOUT if the socket
        // buffer was full).
        if (ic.fd >= 0 && ic.sendbuf_off < ic.sendbuf.size()) {
          FlushInboundWrites(&ic);
        }
        if (closed && ic.fd >= 0) {
          close(ic.fd);
          ic.fd = -1;
        }
      }
    }
    // Compact inbound connections closed during this pass.
    for (size_t i = inbound_.size(); i-- > 0;) {
      if (inbound_[i].fd < 0) inbound_.erase(inbound_.begin() + i);
    }
  }
}

void TcpTransport::BindMetrics(obs::MetricsRegistry* registry,
                               uint32_t site_id) {
  Transport::BindMetrics(registry, site_id);
  const obs::LabelSet site{{"site", std::to_string(site_id)}};
  registry->RegisterCallbackCounter(
      "tardis_net_bytes_sent_total", "Payload bytes written to peer sockets",
      [this] { return bytes_sent(); }, site, this);
  registry->RegisterCallbackCounter(
      "tardis_net_bytes_received_total",
      "Payload bytes read from accepted sockets",
      [this] { return bytes_received(); }, site, this);
  registry->RegisterCallbackCounter(
      "tardis_net_reconnects_total",
      "Outbound connections re-established after a drop",
      [this] { return reconnects(); }, site, this);
}

}  // namespace tardis
