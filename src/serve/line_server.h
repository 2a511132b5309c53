// Reusable line-protocol socket front end.
//
// Factors the daemon plumbing out of serve::Server so every line-delimited
// JSON service in the tree — the synthesis daemon (serve/server.h) and the
// distributed shard workers (dist/worker.h) — shares one implementation of
// endpoint parsing (unix:<path> / tcp:[host:]<port>, ephemeral tcp:0),
// accept/connection threading, '\n' framing with the flood guard, and the
// ack-before-stop shutdown convention.
//
// Threading: one accept thread plus one thread per connection, all joined by
// wait() — never detached. The handler runs on connection threads and may be
// invoked concurrently from several of them; it owns its own locking.
//
// The LineControl out-parameter lets a handler steer the transport:
// stop_after implements shutdown verbs (response on the wire before the stop
// begins, so the requester always hears the ack), and send_prefix /
// abort_after are the deterministic fault hooks the dist worker uses to
// rehearse torn responses and post-ack crashes in-process.
#pragma once

#include <sys/socket.h>

#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace compsynth::serve {

/// A parsed endpoint, the one syntax LineServer listens on and LineClient
/// connects to: unix:<path>, or tcp:[host:]<port> with a numeric IPv4 host
/// (default 127.0.0.1) and a port in [0, 65535] (0 = ephemeral, bind only).
struct Endpoint {
  bool unix_socket = false;
  std::string path;  ///< unix: the socket path
  std::string host;  ///< tcp: the IPv4 address
  int port = 0;      ///< tcp: the port
  sockaddr_storage addr{};  ///< ready for bind() / connect()
  socklen_t addr_len = 0;
};

/// Parses `text`; throws std::runtime_error quoting it when any part is
/// malformed (the port must be the whole rest: "tcp:0abc" is refused).
Endpoint parse_endpoint(const std::string& text);

struct LineServerConfig {
  /// "unix:<path>" or "tcp:<port>" / "tcp:<host>:<port>" (numeric IPv4
  /// host; default 127.0.0.1). TCP port 0 binds an ephemeral port —
  /// endpoint() reports the one chosen.
  std::string listen;
  int backlog = 64;
};

/// Per-request transport directives, filled by the handler.
struct LineControl {
  /// Stop the server after this response is sent (shutdown-verb ack).
  bool stop_after = false;
  /// Send only the first `send_prefix` bytes of the response (no trailing
  /// newline) and drop the connection — a deterministic torn-response
  /// fault. npos = send everything.
  std::size_t send_prefix = std::string::npos;
  /// Hard-stop the server right after the send, skipping the graceful
  /// drain of other connections — simulates a worker crash after the ack.
  bool abort_after = false;
};

class LineServer {
 public:
  /// Handles one request line (CR/LF stripped); returns the response line
  /// (without trailing newline). Must be thread-safe.
  using Handler =
      std::function<std::string(const std::string& line, LineControl* ctl)>;

  /// Binds immediately; throws std::runtime_error on a bad endpoint or bind
  /// failure.
  LineServer(LineServerConfig config, Handler handler);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Starts the accept thread.
  void start();

  /// The bound endpoint in listen syntax (resolves TCP port 0).
  std::string endpoint() const;

  /// Blocks until a shutdown request or stop(), then joins every thread.
  void wait();

  /// Initiates shutdown from outside the protocol (signal handlers, tests).
  /// Graceful: connections are shut down read-side only, so responses
  /// already being written still reach the peer before the close.
  void stop();

 private:
  void accept_loop() EXCLUDES(mu_);
  void connection_loop(int fd) EXCLUDES(mu_);
  void begin_stop() EXCLUDES(mu_);

  LineServerConfig config_;
  Handler handler_;
  // Set in the constructor, read-only afterwards (the accept thread and the
  // destructor both touch listen_fd_, ordered by start()/join()).
  int listen_fd_ = -1;
  bool unix_socket_ = false;
  std::string unix_path_;
  std::string endpoint_;

  util::Mutex mu_;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::set<int> conn_fds_ GUARDED_BY(mu_);
  std::vector<std::thread> conn_threads_ GUARDED_BY(mu_);
  // Joined by wait(); started once by start(). Never detached.
  std::thread accept_thread_;
};

}  // namespace compsynth::serve
