#pragma once
/// \file front_end.hpp
/// \brief Socket front-end of the SolverService (Linux epoll).
///
/// One event-loop thread owns all socket I/O: it accepts keep-alive TCP
/// connections, decodes length-prefixed frames (frame.hpp), parses each
/// request (wire.hpp) and hands it to SolverService::Submit with a
/// completion callback.  The callback — invoked on whichever worker
/// thread finished the solve — never touches the socket; it appends the
/// encoded response to the connection's outbox and wakes the loop through
/// an eventfd, so every byte on the wire is written by the loop thread.
///
/// The front-end adds no policy of its own: admission control, single-
/// flight coalescing, priorities and shedding all happen inside the
/// service, identically for socket and in-process callers — which is what
/// keeps a golden manifest recorded in-process bit-identical when
/// replayed through a socket.
///
/// Overload surfaces per layer:
///  * connection cap (max_conns): excess accepts are closed immediately,
///    counted in `net_rejected_max_conns`;
///  * per-frame errors: a malformed request gets an error response and the
///    connection stays up; broken *framing* closes it (cannot resync);
///  * service-level rejections travel back as ordinary responses
///    (rejected_queue_full, shed_overload, ...) for the client to retry
///    or give up on.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "serve/net/frame.hpp"
#include "serve/service.hpp"

namespace cdd::serve::net {

/// Listener sizing.
struct FrontEndConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back via port().
  std::uint16_t port = 0;
  /// Connection cap; accepts beyond it are closed on the spot.
  std::size_t max_conns = 256;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// The socket listener.  Construction binds, listens and starts the event
/// loop; destruction (or Stop()) closes every connection and joins.
/// Responses of solves still in flight at Stop() are dropped — their
/// futures inside the service resolve regardless.
class FrontEnd {
 public:
  /// Throws std::system_error when the socket cannot be bound.
  FrontEnd(FrontEndConfig config, SolverService& service);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Bound port (the ephemeral one when config.port was 0).
  std::uint16_t port() const { return port_; }

  /// Open connections right now.
  std::size_t connections() const;

  /// Idempotent.
  void Stop();

 private:
  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    std::mutex mutex;       ///< guards outbox (loop thread vs. callbacks)
    std::string outbox;     ///< encoded frames, sent ones first
    std::size_t sent = 0;   ///< outbox bytes already written
    bool broken = false;    ///< framing error: close once outbox drains

    explicit Conn(std::size_t max_frame_bytes)
        : decoder(max_frame_bytes) {}
  };

  /// Callback anchor: completion callbacks hold the shared_ptr and check
  /// `owner` under the mutex, so a worker finishing after Stop() finds a
  /// null owner instead of a dangling front-end.
  struct Anchor {
    std::mutex mutex;
    FrontEnd* owner = nullptr;
  };

  void Loop();
  void AcceptReady();
  void ReadReady(const std::shared_ptr<Conn>& conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn,
                   const std::string& payload);
  /// Appends one encoded frame to the outbox and wakes the loop (any
  /// thread).
  void QueueReply(const std::shared_ptr<Conn>& conn, std::string frame);
  /// Writes as much outbox as the socket accepts; arms EPOLLOUT for the
  /// rest.  The written prefix is dropped once the outbox drains or the
  /// prefix passes half of it, so draining stays linear in its size.
  /// Loop thread only.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(int fd);
  void Wake();

  FrontEndConfig config_;
  SolverService& service_;
  Counter* accepted_;
  Counter* rejected_max_conns_;
  Counter* frames_in_;
  Counter* frames_out_;
  Counter* protocol_errors_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;
  std::shared_ptr<Anchor> anchor_;
  mutable std::mutex conns_mutex_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;  // started last, joined first
};

}  // namespace cdd::serve::net
