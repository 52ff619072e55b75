#include "serve/net_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace meshpram::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MP_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
             "fcntl(O_NONBLOCK): " << std::strerror(errno));
}

}  // namespace

NetServer::NetServer(SessionManager& manager, FairScheduler& scheduler,
                     NetServerConfig config)
    : manager_(manager), scheduler_(scheduler), config_(std::move(config)) {
  MP_REQUIRE(!config_.unix_path.empty() || config_.tcp,
             "NetServer needs at least one listener (unix_path or tcp)");
  MP_REQUIRE(config_.read_chunk >= 1, "read_chunk " << config_.read_chunk);
  MP_REQUIRE(config_.max_events >= 1, "max_events " << config_.max_events);
  events_.resize(static_cast<size_t>(config_.max_events));
  chunk_.resize(static_cast<size_t>(config_.read_chunk));
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  MP_REQUIRE(epoll_fd_ >= 0, "epoll_create1: " << std::strerror(errno));
  if (!config_.unix_path.empty()) unix_fd_ = listen_unix(config_.unix_path);
  if (config_.tcp) tcp_fd_ = listen_tcp(config_.tcp_port);
  scheduler_.set_completion_sink(
      [this](Response&& done) { on_completion(std::move(done)); });
}

NetServer::~NetServer() {
  scheduler_.set_completion_sink({});
  for (auto& [fd, c] : conns_) ::close(fd);
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    ::unlink(config_.unix_path.c_str());
  }
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

int NetServer::listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  MP_REQUIRE(path.size() < sizeof(addr.sun_path),
             "unix socket path too long (" << path.size() << " bytes): "
                                           << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  MP_REQUIRE(fd >= 0, "socket(AF_UNIX): " << std::strerror(errno));
  ::unlink(path.c_str());  // stale rendezvous from a previous run
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    MP_REQUIRE(false, "bind/listen(" << path << "): " << err);
  }
  set_nonblocking(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  MP_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
             "epoll_ctl(listener): " << std::strerror(errno));
  return fd;
}

int NetServer::listen_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  MP_REQUIRE(fd >= 0, "socket(AF_INET): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local serving only
  addr.sin_port = htons(static_cast<unsigned short>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    MP_REQUIRE(false, "bind/listen(127.0.0.1:" << port << "): " << err);
  }
  socklen_t len = sizeof(addr);
  MP_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
             "getsockname: " << std::strerror(errno));
  tcp_port_ = static_cast<int>(ntohs(addr.sin_port));
  set_nonblocking(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  MP_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
             "epoll_ctl(listener): " << std::strerror(errno));
  return fd;
}

void NetServer::arm(Conn& c) {
  epoll_event ev{};
  ev.events = 0;
  if (c.reading && !c.closing) ev.events |= EPOLLIN;
  if (c.want_write) ev.events |= EPOLLOUT;
  ev.data.fd = c.fd;
  MP_ASSERT(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) == 0,
            "epoll_ctl(MOD): " << std::strerror(errno));
}

void NetServer::accept_ready(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: accepted everything pending
    }
    set_nonblocking(fd);
    if (listen_fd == tcp_fd_) {
      // Pipelined small frames must not wait out Nagle's algorithm.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    Conn c;
    c.fd = fd;
    conns_.emplace(fd, std::move(c));
    stats_.accepted += 1;
  }
}

void NetServer::read_ready(Conn& c) {
  for (;;) {
    const ssize_t n = ::read(c.fd, chunk_.data(), chunk_.size());
    if (n > 0) {
      stats_.bytes_in += n;
      c.in.append(chunk_.data(), static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      // EOF. Flush whatever is queued, then close; frames the client
      // abandoned mid-parse simply disappear with the connection.
      c.closing = true;
      c.reading = false;
      arm(c);
      if (c.out.size() == c.out_off) dead_.push_back(c.fd);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    dead_.push_back(c.fd);  // ECONNRESET and friends
    return;
  }
  if (!c.closing) process_inbox(c);
}

void NetServer::process_inbox(Conn& c) {
  while (c.reading && !c.closing) {
    std::optional<std::string> payload;
    WireRequest req;
    try {
      payload = c.in.next_payload();
      if (!payload.has_value()) return;
      req = decode_request(*payload);
    } catch (const std::exception& e) {
      // The stream cannot be resynchronized after a framing/decode error:
      // answer with the failure and drop the connection.
      protocol_error(c, e.what());
      return;
    }
    stats_.frames_in += 1;
    if (!dispatch(c, std::move(req))) return;  // parked
  }
}

bool NetServer::dispatch(Conn& c, WireRequest req) {
  switch (req.type) {
    case MsgType::BatchRead:
    case MsgType::BatchWrite:
    case MsgType::Step:
      break;
    case MsgType::Snapshot:
    case MsgType::Restore:
    case MsgType::Stats:
      send_response(c, handle_control(manager_, req));
      return true;
  }
  Session* s = manager_.find_by_name(req.session);
  if (s == nullptr) {
    WireResponse resp;
    resp.type = req.type;
    resp.request_id = req.request_id;
    resp.ok = false;
    resp.error = "unknown session '" + req.session + "'";
    stats_.rejected += 1;
    send_response(c, resp);
    return true;
  }
  if (s->admissible() && s->queue_full()) {
    // Backpressure, not rejection: hold the request, stop reading, and let
    // the kernel socket buffer push back on the client.
    c.parked = std::move(req);
    c.reading = false;
    arm(c);
    stats_.parked += 1;
    return false;
  }
  submit_execution(c, *s, std::move(req));
  return true;
}

void NetServer::submit_execution(Conn& c, Session& s, WireRequest req) {
  // Client request ids are connection-local: rewrite onto the server's
  // private id space so two connections may both use id 1.
  const u64 internal = next_internal_id_++;
  Request work;
  work.id = internal;
  work.accesses = std::move(req.accesses);
  const Admission verdict = scheduler_.submit(s.id(), std::move(work));
  if (!verdict.accepted) {
    WireResponse resp;
    resp.type = req.type;
    resp.request_id = req.request_id;
    resp.ok = false;
    resp.error = verdict.reason;
    stats_.rejected += 1;
    send_response(c, resp);
    return;
  }
  inflight_.emplace(internal, Inflight{c.fd, req.request_id, req.type});
}

void NetServer::retry_parked() {
  for (auto& [fd, c] : conns_) {
    if (!c.parked.has_value() || c.closing) continue;
    Session* s = manager_.find_by_name(c.parked->session);
    if (s != nullptr && s->admissible() && s->queue_full()) continue;
    WireRequest req = std::move(*c.parked);
    c.parked.reset();
    if (s == nullptr) {
      WireResponse resp;
      resp.type = req.type;
      resp.request_id = req.request_id;
      resp.ok = false;
      resp.error = "unknown session '" + req.session + "'";
      stats_.rejected += 1;
      send_response(c, resp);
    } else {
      submit_execution(c, *s, std::move(req));
    }
    c.reading = true;
    arm(c);
    process_inbox(c);  // drain frames buffered while parked (may re-park)
  }
}

void NetServer::send_response(Conn& c, const WireResponse& resp) {
  c.out += encode_response(resp);
  stats_.frames_out += 1;
}

void NetServer::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::write(c.fd, c.out.data() + c.out_off,
                              c.out.size() - c.out_off);
    if (n > 0) {
      stats_.bytes_out += n;
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.want_write) {
        c.want_write = true;
        arm(c);
      }
      return;
    }
    dead_.push_back(c.fd);  // EPIPE and friends
    return;
  }
  c.out.clear();
  c.out_off = 0;
  if (c.want_write) {
    c.want_write = false;
    arm(c);
  }
  if (c.closing) dead_.push_back(c.fd);
}

void NetServer::flush_all() {
  for (auto& [fd, c] : conns_) {
    if (c.out_off < c.out.size() || c.closing) flush(c);
  }
}

void NetServer::protocol_error(Conn& c, const std::string& what) {
  stats_.protocol_errors += 1;
  WireResponse resp;
  resp.ok = false;
  resp.error = what;
  send_response(c, resp);
  c.in.clear();
  c.parked.reset();
  c.reading = false;
  c.closing = true;
  arm(c);
}

void NetServer::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  stats_.closed += 1;
}

void NetServer::on_completion(Response&& done) {
  const auto it = inflight_.find(done.id);
  if (it == inflight_.end()) return;  // not ours (direct scheduler user)
  const Inflight rec = it->second;
  inflight_.erase(it);
  const auto cit = conns_.find(rec.fd);
  if (cit == conns_.end()) return;  // connection went away; drop the result
  WireResponse resp;
  resp.type = rec.type;
  resp.request_id = rec.client_id;
  resp.ok = done.ok;
  resp.error = std::move(done.error);
  // Write-only steps return no data (mirrors the LoopbackDriver).
  if (rec.type != MsgType::BatchWrite) resp.values = std::move(done.values);
  resp.mesh_steps = done.mesh_steps;
  resp.slice = done.slice;
  resp.coalesced = done.coalesced;
  send_response(cit->second, resp);
}

i64 NetServer::poll_once(int timeout_ms) {
  int n = ::epoll_wait(epoll_fd_, events_.data(),
                       static_cast<int>(events_.size()), timeout_ms);
  if (n < 0) {
    MP_ASSERT(errno == EINTR, "epoll_wait: " << std::strerror(errno));
    n = 0;
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events_[static_cast<size_t>(i)].data.fd;
    const u32 flags = events_[static_cast<size_t>(i)].events;
    if (fd == unix_fd_ || fd == tcp_fd_) {
      accept_ready(fd);
      continue;
    }
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn& c = it->second;
    if ((flags & (EPOLLHUP | EPOLLERR)) != 0 &&
        (flags & (EPOLLIN | EPOLLOUT)) == 0) {
      dead_.push_back(fd);
      continue;
    }
    if ((flags & EPOLLIN) != 0) read_ready(c);
    if (conns_.count(fd) != 0 && (flags & EPOLLOUT) != 0) flush(c);
  }
  const i64 executed = scheduler_.run_slice();
  retry_parked();
  flush_all();
  for (const int fd : dead_) close_conn(fd);
  dead_.clear();
  return executed;
}

void NetServer::run(const std::atomic<bool>& stop) {
  while (!stop) {
    poll_once(busy() ? 0 : 5);
  }
}

bool NetServer::busy() const {
  if (manager_.total_pending() > 0) return true;
  for (const auto& [fd, c] : conns_) {
    if (c.parked.has_value() || c.out_off < c.out.size() || c.in.buffered() > 0)
      return true;
  }
  return false;
}

}  // namespace meshpram::serve
