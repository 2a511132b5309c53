#include "serve/line_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

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
  if (endpoint.rfind("unix:", 0) == 0) {
    const std::string path = endpoint.substr(5);
    if (path.empty()) {
      throw std::runtime_error("endpoint unix: requires a socket path");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("unix socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return -1;
    }
    return fd;
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    std::string host = "127.0.0.1";
    std::string port_part = endpoint.substr(4);
    const std::size_t colon = port_part.rfind(':');
    if (colon != std::string::npos) {
      host = port_part.substr(0, colon);
      port_part = port_part.substr(colon + 1);
    }
    int port = -1;
    try {
      port = std::stoi(port_part);
    } catch (const std::exception&) {
      port = -1;
    }
    if (port <= 0 || port > 65535) {
      throw std::runtime_error("bad tcp port in endpoint: " + endpoint);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("bad tcp host in endpoint (numeric IPv4): " +
                               host);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    // Requests are single sends awaiting a reply; Nagle would only delay them.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return -1;
    }
    return fd;
  }
  throw std::runtime_error(
      "endpoint must be unix:<path> or tcp:[host:]<port>, got '" + endpoint +
      "'");
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
