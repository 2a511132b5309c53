#include "serve/line_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "serve/line_server.h"

namespace compsynth::serve {

namespace {

// Matches the server-side flood guard (line_server.cpp).
constexpr std::size_t kMaxLine = 1 << 20;

void set_io_timeout(int fd, double seconds) {
  if (seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// One connect attempt. Returns the fd, or -1 with errno set on a
/// retryable refusal; throws std::runtime_error on a malformed endpoint.
int try_connect(const std::string& endpoint) {
  const Endpoint ep = parse_endpoint(endpoint);
  if (!ep.unix_socket && ep.port == 0) {
    throw std::runtime_error("endpoint '" + endpoint +
                             "': port 0 names no server");
  }
  const int fd = ::socket(ep.addr.ss_family, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  if (!ep.unix_socket) {
    // Requests are single sends awaiting a reply; Nagle would only delay them.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&ep.addr),
                ep.addr_len) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

}  // namespace

LineClient::LineClient(LineClientConfig config) : config_(std::move(config)) {
  const int attempts =
      config_.connect_retry.max_attempts < 1 ? 1
                                             : config_.connect_retry.max_attempts;
  int last_errno = 0;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      util::sleep_seconds(config_.connect_retry.backoff_before(attempt));
    }
    fd_ = try_connect(config_.endpoint);
    if (fd_ >= 0) {
      set_io_timeout(fd_, config_.io_timeout_s);
      return;
    }
    last_errno = errno;
    // Only the daemon-still-starting races are worth retrying: the listener
    // hasn't bound yet (ECONNREFUSED) or a unix socket path hasn't been
    // created yet (ENOENT). Everything else is a configuration error.
    if (last_errno != ECONNREFUSED && last_errno != ENOENT) break;
  }
  throw util::TransientError("connect " + config_.endpoint + ": " +
                             std::strerror(last_errno));
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string LineClient::request(const std::string& line) {
  if (fd_ < 0) {
    throw util::TransientError("connection to " + config_.endpoint +
                               " already failed");
  }
  std::string out = line;
  out.push_back('\n');
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      const std::string why = (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                                  ? "send timeout"
                                  : std::string("send: ") + std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      throw util::TransientError(config_.endpoint + ": " + why);
    }
    sent += static_cast<std::size_t>(n);
  }
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string response = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!response.empty() && response.back() == '\r') response.pop_back();
      return response;
    }
    if (buffer_.size() > kMaxLine) {
      ::close(fd_);
      fd_ = -1;
      throw util::TransientError(config_.endpoint + ": response line too long");
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const std::string why =
          (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
              ? "recv timeout"
              : (n == 0 ? "connection closed mid-response"
                        : std::string("recv: ") + std::strerror(errno));
      ::close(fd_);
      fd_ = -1;
      throw util::TransientError(config_.endpoint + ": " + why);
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace compsynth::serve
