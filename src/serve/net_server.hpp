// Epoll-based network server for the length-prefixed frame protocol
// (DESIGN.md §14).
//
// Single-threaded event loop over nonblocking TCP (127.0.0.1) and
// unix-domain listeners. Each connection carries an incremental FrameBuffer
// inbox and a byte outbox, so partial reads and short writes are first-class
// and clients may pipeline arbitrarily many frames. One poll_once() round:
//
//   1. drain ready sockets (accept / read+decode+dispatch / flush writes);
//   2. run ONE scheduler slice — with coalescing enabled, the frames that
//      piled up across connections since the last slice merge into single
//      routing passes (plan_coalesce);
//   3. retry parked requests, then flush every outbox.
//
// Backpressure state machine (per connection):
//
//   READING --(session queue full)--> PARKED: the decoded request is held on
//     the connection, EPOLLIN interest is dropped, and the inbox stops
//     draining — the kernel socket buffer, and eventually the client, absorb
//     the pressure instead of server memory.
//   PARKED --(queue has room after a slice)--> READING: the parked request
//     is submitted, EPOLLIN is re-armed, and the inbox resumes draining.
//
// Hard overload (global in-flight budget, unknown/suspended/draining
// session) is a *rejection*, not backpressure: the existing ok=false
// admission frame goes out immediately and the connection keeps reading.
//
// Request ids are connection-local: the server rewrites them onto a private
// id space before admission (two clients may both use id 1) and restores the
// client's id on the way out.
//
// Threading: everything — listeners, connections, sessions, scheduler — is
// owned by whichever thread calls poll_once()/run(). Clients talk to the
// server through sockets only, so driving the loop from a dedicated thread
// while many client threads connect is data-race-free by construction
// (enforced under the tsan-serve-net preset).
#pragma once

#include <sys/epoll.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/api.hpp"

namespace meshpram::serve {

struct NetServerConfig {
  /// Unix-domain listener path; empty = no unix listener. An existing socket
  /// file at the path is replaced (the server owns its rendezvous path).
  std::string unix_path;
  /// TCP listener on 127.0.0.1; port 0 = kernel-assigned (see tcp_port()).
  bool tcp = false;
  int tcp_port = 0;
  /// Bytes per ::read call while draining a readable socket.
  i64 read_chunk = 64 * 1024;
  int max_events = 64;
};

struct NetServerStats {
  i64 accepted = 0;        ///< connections accepted
  i64 closed = 0;          ///< connections closed (either side)
  i64 frames_in = 0;       ///< complete request frames decoded
  i64 frames_out = 0;      ///< response frames fully written
  i64 bytes_in = 0;
  i64 bytes_out = 0;
  i64 rejected = 0;        ///< admission rejection frames sent
  i64 parked = 0;          ///< backpressure park transitions
  i64 protocol_errors = 0; ///< malformed streams dropped
};

class NetServer {
 public:
  /// Binds the configured listeners and installs itself as the scheduler's
  /// completion sink. Throws ConfigError when no listener is configured or a
  /// bind fails.
  NetServer(SessionManager& manager, FairScheduler& scheduler,
            NetServerConfig config);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolved when config.tcp_port was 0); -1 without a
  /// TCP listener.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  /// One event-loop round (see the file comment). `timeout_ms` bounds the
  /// epoll wait; 0 polls. Returns the number of requests the embedded
  /// scheduler slice executed.
  i64 poll_once(int timeout_ms);

  /// Loops poll_once until `stop` becomes true (checked every round).
  void run(const std::atomic<bool>& stop);

  /// Pending work anywhere: queued requests, parked requests, undrained
  /// outboxes. When false and no client writes, poll_once is idle.
  bool busy() const;

  i64 open_connections() const { return static_cast<i64>(conns_.size()); }
  const NetServerStats& stats() const { return stats_; }

 private:
  struct Conn {
    int fd = -1;
    FrameBuffer in;
    std::string out;
    size_t out_off = 0;
    bool want_write = false;  ///< EPOLLOUT armed
    bool reading = true;      ///< EPOLLIN armed (false while parked)
    bool closing = false;     ///< flush the outbox, then close
    std::optional<WireRequest> parked;  ///< request awaiting queue space
  };
  /// Routing record for an admitted execution request.
  struct Inflight {
    int fd = -1;
    u64 client_id = 0;
    MsgType type = MsgType::Step;
  };

  int listen_unix(const std::string& path);
  int listen_tcp(int port);
  void arm(Conn& c);  ///< syncs epoll interest with reading/want_write
  void accept_ready(int listen_fd);
  void read_ready(Conn& c);
  void process_inbox(Conn& c);
  /// Dispatches one decoded request; returns false when the request parked
  /// (stop draining this connection's inbox).
  bool dispatch(Conn& c, WireRequest req);
  void submit_execution(Conn& c, Session& s, WireRequest req);
  void retry_parked();
  void send_response(Conn& c, const WireResponse& resp);
  void flush(Conn& c);
  void flush_all();
  void protocol_error(Conn& c, const std::string& what);
  void close_conn(int fd);
  void on_completion(Response&& done);

  SessionManager& manager_;
  FairScheduler& scheduler_;
  NetServerConfig config_;
  int epoll_fd_ = -1;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  std::map<int, Conn> conns_;  ///< ordered: parked retries scan fd-ascending
  std::map<u64, Inflight> inflight_;
  u64 next_internal_id_ = 1;
  NetServerStats stats_;
  std::vector<int> dead_;  ///< fds to close after the event sweep
  /// Scratch sized once at construction: poll_once's epoll result array and
  /// read_ready's read buffer (one per server, reused by every round).
  std::vector<epoll_event> events_;
  std::vector<char> chunk_;
};

}  // namespace meshpram::serve
