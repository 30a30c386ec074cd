// net::Listener — the one socket-transport abstraction of the serving
// stack: a listening endpoint over a Unix-domain path *or* a TCP
// host:port, behind one RAII type, so the reactor, the daemon wiring and
// the tests never branch on the address family.
//
// Endpoints parse from the daemon's flag syntax ("--socket PATH" /
// "--listen HOST:PORT"); TCP port 0 binds an ephemeral port and
// endpoint() reports the bound one, which is what lets tests and CI run
// without reserving ports. Listening sockets are always non-blocking
// (several pollers may race for one connection; a lost race is EAGAIN,
// never a stall), and a Unix listener owns its socket file: the stale
// path is cleared before bind and unlinked again on close, the daemon
// contract since PR 8.
//
// The client half of the EOF framing lives here too, next to
// connect_endpoint(): exchange() connects, writes the request, shuts
// down its write side (the request delimiter), reads the response to EOF
// and closes. It is the one client of the serving stack — the daemon's
// client mode, bench_serve and the serving tests all call it. It uses
// raw syscalls, never the testing::fault wrappers, so a chaos seed's
// injection schedule covers the server side only, and its writes use
// MSG_NOSIGNAL, so a peer that is gone never raises SIGPIPE.
//
// Thread safety: a Listener is plain state — confine it to one thread
// (the reactor). connect_endpoint() and the client functions are free
// functions usable from any thread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace fppn {
namespace net {

/// A serve endpoint: a Unix-domain socket path or a TCP host:port.
struct Endpoint {
  enum class Kind { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;         ///< Unix socket path (kUnix)
  std::string host;         ///< numeric IPv4 or resolvable name (kTcp)
  std::uint16_t port = 0;   ///< kTcp; 0 = bind an ephemeral port

  [[nodiscard]] static Endpoint unix_socket(std::string socket_path);
  [[nodiscard]] static Endpoint tcp(std::string host, std::uint16_t port);

  /// Parses the "--listen HOST:PORT" syntax ("127.0.0.1:7777",
  /// "localhost:0"). Throws std::invalid_argument with the offending
  /// text for a missing host, missing ':', or a port outside 0..65535.
  [[nodiscard]] static Endpoint parse_tcp(const std::string& text);

  /// "unix:'<path>'" or "tcp <host>:<port>" — log/error rendering.
  [[nodiscard]] std::string describe() const;
};

/// RAII non-blocking listening socket over either endpoint kind.
class Listener {
 public:
  /// Binds and listens. Unix: clears a stale socket file first (the
  /// daemon owns its path) and rejects over-long paths. TCP: resolves
  /// `host` (numeric service), sets SO_REUSEADDR, and reports the bound
  /// port through endpoint() when 0 was requested. Throws
  /// std::runtime_error naming the endpoint and the OS error.
  [[nodiscard]] static Listener listen(const Endpoint& endpoint, int backlog = 64);

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// The listening endpoint; for TCP the port is the actually-bound one.
  [[nodiscard]] const Endpoint& endpoint() const noexcept { return endpoint_; }

  /// Accepts one pending connection and makes it non-blocking. Returns
  /// the connection fd, or -1 when none is ready (EAGAIN/EINTR/
  /// ECONNABORTED — transient, poll again) or the listener is unusable.
  [[nodiscard]] int accept_connection() const;

  /// Closes the socket; a Unix listener unlinks its path. Idempotent.
  void close();

 private:
  Listener(int fd, Endpoint endpoint) : fd_(fd), endpoint_(std::move(endpoint)) {}

  int fd_ = -1;
  Endpoint endpoint_;
};

/// Sets O_NONBLOCK on `fd`; a failing fcntl leaves the fd as it was.
void set_nonblocking(int fd);

/// Blocking client connect to `endpoint`. Returns the connected fd, or
/// -1 with errno describing the failure — callers render their own
/// message (the daemon's client mode has a pinned format).
[[nodiscard]] int connect_endpoint(const Endpoint& endpoint);

/// Writes all of `data` to the socket `fd` with send(MSG_NOSIGNAL).
/// EINTR is retried; any other error stops the write. Returns true iff
/// every byte was written.
bool write_all(int fd, const std::string& data);

/// Reads `fd` until EOF or a hard error (EINTR is retried) and returns
/// the bytes read.
[[nodiscard]] std::string read_to_eof(int fd);

/// One EOF-framed request: connect, write `request`, half-close, read
/// the response to EOF, close. nullopt iff the connect failed, with
/// errno describing the failure; a write or read failure after the
/// connect yields whatever response bytes arrived.
[[nodiscard]] std::optional<std::string> exchange(const Endpoint& endpoint,
                                                  const std::string& request);

}  // namespace net
}  // namespace fppn
