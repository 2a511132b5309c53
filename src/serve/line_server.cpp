#include "serve/line_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/number.h"

namespace compsynth::serve {

namespace {

// One request line is at most this long; longer floods the connection shut.
constexpr std::size_t kMaxLine = 1 << 20;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Endpoint parse_endpoint(const std::string& text) {
  Endpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.unix_socket = true;
    ep.path = text.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.empty()) {
      throw std::runtime_error("endpoint '" + text +
                               "': unix: requires a socket path");
    }
    if (ep.path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("unix socket path too long: " + ep.path);
    }
    std::memcpy(addr.sun_path, ep.path.data(), ep.path.size());
    std::memcpy(&ep.addr, &addr, sizeof addr);
    ep.addr_len = sizeof addr;
    return ep;
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string_view rest = std::string_view(text).substr(4);
    const std::size_t colon = rest.rfind(':');
    ep.host = colon == std::string_view::npos ? "127.0.0.1"
                                              : std::string(rest.substr(0, colon));
    const std::optional<int> port = util::parse_number<int>(
        colon == std::string_view::npos ? rest : rest.substr(colon + 1), 0,
        65535);
    if (!port) {
      throw std::runtime_error("bad tcp port in endpoint '" + text +
                               "' (expected 0..65535)");
    }
    ep.port = *port;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
    if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("bad tcp host in endpoint '" + text +
                               "' (numeric IPv4 expected)");
    }
    std::memcpy(&ep.addr, &addr, sizeof addr);
    ep.addr_len = sizeof addr;
    return ep;
  }
  throw std::runtime_error(
      "endpoint must be unix:<path> or tcp:[host:]<port>, got '" + text + "'");
}

LineServer::LineServer(LineServerConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  const Endpoint ep = parse_endpoint(config_.listen);
  listen_fd_ = ::socket(ep.addr.ss_family, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  if (ep.unix_socket) {
    unix_socket_ = true;
    unix_path_ = ep.path;
    ::unlink(unix_path_.c_str());
  } else {
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&ep.addr),
             ep.addr_len) < 0) {
    throw_errno("bind " + config_.listen);
  }
  if (ep.unix_socket) {
    endpoint_ = "unix:" + unix_path_;
  } else {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    endpoint_ = "tcp:" + ep.host + ":" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(listen_fd_, config_.backlog) < 0) throw_errno("listen");
}

LineServer::~LineServer() {
  stop();
  wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (unix_socket_) ::unlink(unix_path_.c_str());
}

std::string LineServer::endpoint() const { return endpoint_; }

void LineServer::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void LineServer::begin_stop() {
  {
    const util::MutexLock lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Unblock accept(); on Linux shutdown() on a listening socket makes a
  // blocked accept return. Closing happens in the destructor.
  ::shutdown(listen_fd_, SHUT_RDWR);
}

void LineServer::stop() {
  begin_stop();
  // Read-side only: a blocked recv wakes with EOF and the connection drains,
  // while a response currently being written still reaches the peer — the
  // graceful half of SIGTERM handling (tools/compsynth_serve.cpp).
  const util::MutexLock lk(mu_);
  for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
}

void LineServer::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // No new connections can appear now; close out the existing ones.
  {
    const util::MutexLock lk(mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  std::vector<std::thread> threads;
  {
    const util::MutexLock lk(mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void LineServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    {
      const util::MutexLock lk(mu_);
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        return;
      }
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // listener gone
      }
      if (!unix_socket_) {
        // Each response is one send() (connection_loop); with Nagle on, a
        // response whose head was still unacknowledged would wait for the
        // peer's delayed ACK (~40 ms) before its tail left.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      conn_fds_.insert(fd);
      conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
    }
  }
}

void LineServer::connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  bool stop_requested = false;
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', pos);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(pos, nl - pos);
      pos = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      LineControl ctl;
      const std::string response = handler_(line, &ctl);
      if (ctl.send_prefix < response.size()) {
        // Torn-response fault: partial bytes, no newline, connection dropped.
        send_all(fd, std::string_view(response).substr(0, ctl.send_prefix));
        pos = buffer.size();
        stop_requested = true;
        break;
      }
      // One buffer per response: a separate send of the trailing newline
      // is a write-write-read pattern that stalls on TCP's delayed ACK.
      if (!send_all(fd, response + '\n')) {
        pos = buffer.size();
        stop_requested = true;  // peer gone; just leave the loop below
        break;
      }
      if (ctl.abort_after) {
        // Crash-after-ack fault: the response is on the wire, now take the
        // whole server down without draining anything else.
        begin_stop();
        {
          const util::MutexLock lk(mu_);
          for (const int other : conn_fds_) {
            if (other != fd) ::shutdown(other, SHUT_RDWR);
          }
        }
        pos = buffer.size();
        stop_requested = true;
        break;
      }
      if (ctl.stop_after) {
        // Shutdown verb: the response is on the wire *before* the stop is
        // initiated, so the requester always hears the ack.
        begin_stop();
        stop_requested = true;
        break;
      }
      {
        const util::MutexLock lk(mu_);
        if (stopping_) {
          stop_requested = true;
          break;
        }
      }
    }
    buffer.erase(0, pos);
    if (stop_requested || buffer.size() > kMaxLine) break;
  }
  // Untrack before close: once closed, the kernel may hand the same fd
  // number to a concurrent accept, and erasing afterwards would drop the
  // *new* connection's entry (stop() would then never shut it down).
  {
    const util::MutexLock lk(mu_);
    conn_fds_.erase(fd);
  }
  ::close(fd);
}

}  // namespace compsynth::serve
