#include "net/uds.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/clock.hpp"
#include "net/frame.hpp"

namespace trajkit::net {
namespace {

constexpr int kPollSliceMs = 50;  ///< stop-flag poll granularity, server side

bool fill_sockaddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() + 1 > sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// Read exactly n bytes; polls in slices so `stopping` can interrupt.
/// Returns false on EOF, error, or stop.
bool read_full(int fd, char* buf, std::size_t n,
               const std::atomic<bool>& stopping) {
  std::size_t got = 0;
  while (got < n) {
    if (stopping.load(std::memory_order_relaxed)) return false;
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, kPollSliceMs);
    if (rc < 0 && errno != EINTR) return false;
    if (rc <= 0) continue;
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r <= 0) {
      if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_full(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

/// Client-side deadline read: polls against an absolute deadline.
/// Returns +1 on success, 0 on deadline, -1 on connection error.
int read_full_deadline(int fd, char* buf, std::size_t n,
                       std::int64_t deadline_abs_us) {
  std::size_t got = 0;
  while (got < n) {
    const std::int64_t remaining_us = deadline_abs_us - steady_clock().now_us();
    if (remaining_us <= 0) return 0;
    pollfd p{fd, POLLIN, 0};
    const int timeout_ms =
        static_cast<int>((remaining_us + 999) / 1000);
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc < 0 && errno != EINTR) return -1;
    if (rc <= 0) continue;
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r <= 0) {
      if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return -1;
    }
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

}  // namespace

UdsServer::UdsServer(std::string socket_path, Handler handler)
    : path_(std::move(socket_path)), handler_(std::move(handler)) {}

UdsServer::~UdsServer() { stop(); }

Expected<bool, std::string> UdsServer::start() {
  using Result = Expected<bool, std::string>;
  if (running_.load()) return true;
  sockaddr_un addr;
  if (!fill_sockaddr(path_, &addr))
    return Result::failure("uds: socket path too long: " + path_);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Result::failure("uds: socket(): " + std::string(std::strerror(errno)));
  ::unlink(path_.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Result::failure("uds: bind(" + path_ + "): " + err);
  }
  if (::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Result::failure("uds: listen(): " + err);
  }
  listen_fd_ = fd;
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void UdsServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& conn : conn_threads_) conn->thread.join();
  conn_threads_.clear();
  ::unlink(path_.c_str());
}

void UdsServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    reap_connections();
    pollfd p{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, kPollSliceMs);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    auto conn = std::make_unique<ConnThread>();
    conn->thread = std::thread([this, fd, done = &conn->done] {
      serve_connection(fd);
      done->store(true, std::memory_order_release);
    });
    conn_threads_.push_back(std::move(conn));
  }
}

void UdsServer::reap_connections() {
  std::erase_if(conn_threads_, [](const std::unique_ptr<ConnThread>& conn) {
    if (!conn->done.load(std::memory_order_acquire)) return false;
    conn->thread.join();
    return true;
  });
}

void UdsServer::serve_connection(int fd) {
  char header_buf[kFrameHeaderBytes];
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!read_full(fd, header_buf, kFrameHeaderBytes, stopping_)) break;
    auto header = decode_frame_header(
        std::string_view(header_buf, kFrameHeaderBytes));
    if (!header) break;  // stream framing cannot resync; poison the connection
    std::string payload(header.value().payload_len, '\0');
    if (!read_full(fd, payload.data(), payload.size(), stopping_)) break;
    if (!check_frame_payload(header.value(), payload)) break;
    served_.fetch_add(1, std::memory_order_relaxed);
    std::string response;
    try {
      response = handler_(payload);
    } catch (const std::exception& e) {
      break;  // a throwing handler is a transport error: drop the connection
    }
    const std::string out = encode_frame(header.value().msg_id, response);
    if (!write_full(fd, out.data(), out.size())) break;
  }
  ::close(fd);
}

UdsTransport::~UdsTransport() { reset(); }

void UdsTransport::reset() {
  std::lock_guard<std::mutex> lock(map_mu_);
  for (auto& [path, conn] : connections_) {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
}

CallResult UdsTransport::call(const std::string& endpoint,
                              std::string_view request,
                              const CallOptions& opts) {
  Connection* conn = nullptr;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    auto& slot = connections_[endpoint];
    if (!slot) slot = std::make_unique<Connection>();
    conn = slot.get();
  }
  std::lock_guard<std::mutex> conn_lock(conn->mu);

  const std::int64_t deadline_abs_us =
      steady_clock().now_us() + opts.deadline_us;

  if (conn->fd < 0) {
    sockaddr_un addr;
    if (!fill_sockaddr(endpoint, &addr))
      return {CallStatus::kError, "uds: socket path too long: " + endpoint};
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
      return {CallStatus::kError,
              "uds: socket(): " + std::string(std::strerror(errno))};
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return {CallStatus::kUnreachable, "uds: connect(" + endpoint + "): " + err};
    }
    conn->fd = fd;
  }

  const std::uint64_t msg_id =
      next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  const std::string out = encode_frame(msg_id, request);
  if (!write_full(conn->fd, out.data(), out.size())) {
    ::close(conn->fd);
    conn->fd = -1;
    return {CallStatus::kUnreachable, "uds: send failed (peer gone?)"};
  }

  char header_buf[kFrameHeaderBytes];
  int rc = read_full_deadline(conn->fd, header_buf, kFrameHeaderBytes,
                              deadline_abs_us);
  if (rc <= 0) {
    // A late response would desynchronise the stream — kill the connection
    // so the next call starts clean.
    ::close(conn->fd);
    conn->fd = -1;
    return rc == 0 ? CallResult{CallStatus::kTimeout, "uds: deadline"}
                   : CallResult{CallStatus::kUnreachable, "uds: read failed"};
  }
  auto header =
      decode_frame_header(std::string_view(header_buf, kFrameHeaderBytes));
  if (!header) {
    ::close(conn->fd);
    conn->fd = -1;
    return {CallStatus::kError, header.error()};
  }
  std::string payload(header.value().payload_len, '\0');
  rc = read_full_deadline(conn->fd, payload.data(), payload.size(),
                          deadline_abs_us);
  if (rc <= 0) {
    ::close(conn->fd);
    conn->fd = -1;
    return rc == 0 ? CallResult{CallStatus::kTimeout, "uds: deadline"}
                   : CallResult{CallStatus::kUnreachable, "uds: read failed"};
  }
  auto ok = check_frame_payload(header.value(), payload);
  if (!ok) {
    ::close(conn->fd);
    conn->fd = -1;
    return {CallStatus::kError, ok.error()};
  }
  if (header.value().msg_id != msg_id) {
    ::close(conn->fd);
    conn->fd = -1;
    return {CallStatus::kError, "uds: response msg id mismatch"};
  }
  return {CallStatus::kOk, std::move(payload)};
}

}  // namespace trajkit::net
