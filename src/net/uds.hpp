// Unix-domain-socket transport: genuinely cross-process shards.
//
// UdsServer listens on a filesystem socket path and serves length-prefixed
// frames (net/frame) through a Handler — one accept-loop thread plus one
// thread per live connection.  The accept loop joins each connection thread
// once it has exited (a client that reconnects after every timeout would
// otherwise strand one thread per connection), and stop() joins the rest, so
// sanitizer legs see clean shutdowns.  UdsTransport is the client: it
// caches one connection per endpoint (socket path), allows one in-flight
// call per connection, and enforces the per-call deadline with poll().  A timed-out call closes its
// connection, which is what keeps request/response matching trivial: a late
// response can never be mistaken for the answer to a newer call, because the
// stream it would arrive on is gone.  Frames also carry a msg id that the
// response must echo, belt and braces against protocol bugs.
//
// The endpoint string IS the socket path, so the shard protocol layer
// (serve/net_shard) is byte-identical over UDS and SimNet — tests run the
// same equivalence suite over both, with the UDS side forked into a real
// second process.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/expected.hpp"
#include "net/transport.hpp"

namespace trajkit::net {

class UdsServer {
 public:
  /// Prepares a server for `socket_path`; start() does the binding.
  UdsServer(std::string socket_path, Handler handler);
  ~UdsServer();
  UdsServer(const UdsServer&) = delete;
  UdsServer& operator=(const UdsServer&) = delete;

  /// Unlink any stale socket, bind, listen, and spawn the accept loop.
  Expected<bool, std::string> start();
  /// Stop accepting, close every connection, join all threads (idempotent).
  void stop();

  const std::string& path() const { return path_; }
  bool running() const { return running_.load(); }
  /// Requests served (handler invocations) since start.
  std::uint64_t served() const { return served_.load(); }

 private:
  /// One connection's thread; `done` is set as the thread exits.
  struct ConnThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(int fd);
  /// Join the connection threads that have exited.
  void reap_connections();

  std::string path_;
  Handler handler_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  std::thread accept_thread_;
  /// Owned by the accept thread while it runs, then by stop().
  std::vector<std::unique_ptr<ConnThread>> conn_threads_;
};

class UdsTransport final : public Transport {
 public:
  UdsTransport() = default;
  ~UdsTransport() override;
  UdsTransport(const UdsTransport&) = delete;
  UdsTransport& operator=(const UdsTransport&) = delete;

  /// `endpoint` is the server's socket path.
  CallResult call(const std::string& endpoint, std::string_view request,
                  const CallOptions& opts) override;

  /// Drop every cached connection (next call reconnects).
  void reset();

 private:
  struct Connection {
    std::mutex mu;  ///< one in-flight call per connection
    int fd = -1;
  };

  std::mutex map_mu_;
  std::map<std::string, std::unique_ptr<Connection>> connections_;
  std::atomic<std::uint64_t> next_msg_id_{1};
};

}  // namespace trajkit::net
