#include "serve/line_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

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

LineServer::LineServer(LineServerConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  const std::string& listen = config_.listen;
  if (listen.rfind("unix:", 0) == 0) {
    unix_socket_ = true;
    unix_path_ = listen.substr(5);
    if (unix_path_.empty()) {
      throw std::runtime_error("--listen unix: requires a socket path");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path_.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("unix socket path too long: " + unix_path_);
    }
    std::strncpy(addr.sun_path, unix_path_.c_str(), sizeof addr.sun_path - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    ::unlink(unix_path_.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      throw_errno("bind " + unix_path_);
    }
    endpoint_ = "unix:" + unix_path_;
  } else if (listen.rfind("tcp:", 0) == 0) {
    std::string host_part = "127.0.0.1";
    std::string port_part = listen.substr(4);
    const std::size_t colon = port_part.rfind(':');
    if (colon != std::string::npos) {
      host_part = port_part.substr(0, colon);
      port_part = port_part.substr(colon + 1);
    }
    int port = -1;
    try {
      port = std::stoi(port_part);
    } catch (const std::exception&) {
      port = -1;
    }
    if (port < 0 || port > 65535) {
      throw std::runtime_error("bad tcp port in --listen: " + listen);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host_part.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("bad tcp host in --listen (numeric IPv4): " +
                               host_part);
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      throw_errno("bind " + listen);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    endpoint_ =
        "tcp:" + host_part + ":" + std::to_string(ntohs(bound.sin_port));
  } else {
    throw std::runtime_error(
        "--listen must be unix:<path> or tcp:[host:]<port>, got '" + listen +
        "'");
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
