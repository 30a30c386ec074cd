// Unit tests for the src/net layer in isolation: Endpoint parsing,
// Listener binding over both address families (ephemeral TCP ports
// included), WorkQueue's backpressure/drain semantics, and the Reactor's
// connection state machine — echo roundtrips, slow readers against large
// responses, the oversize cap, the hard-read-error path (a torn TCP
// request must surface as an error, never as a truncated dispatch), and
// drain aborting half-read connections — plus the EOF-framing client
// (net::exchange) on a missing socket and against a peer that closes
// without reading.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/listener.hpp"
#include "net/reactor.hpp"
#include "net/work_queue.hpp"

namespace {

namespace fs = std::filesystem;
using fppn::net::Endpoint;
using fppn::net::Listener;
using fppn::net::Reactor;
using fppn::net::WorkQueue;

/// Fresh per-test scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_net_test_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using fppn::net::read_to_eof;
using fppn::net::write_all;

/// One blocking request/response exchange against `endpoint`.
std::string roundtrip(const Endpoint& endpoint, const std::string& request) {
  return fppn::net::exchange(endpoint, request).value_or("<connect failed>");
}

// ----------------------------------------------------------- Endpoint --

TEST(Endpoint, ParsesHostPort) {
  const Endpoint a = Endpoint::parse_tcp("127.0.0.1:7777");
  EXPECT_EQ(a.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 7777);
  EXPECT_EQ(a.describe(), "tcp 127.0.0.1:7777");

  const Endpoint b = Endpoint::parse_tcp("localhost:0");
  EXPECT_EQ(b.host, "localhost");
  EXPECT_EQ(b.port, 0);

  const Endpoint u = Endpoint::unix_socket("/tmp/x.sock");
  EXPECT_EQ(u.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(u.describe(), "unix:'/tmp/x.sock'");
}

TEST(Endpoint, RejectsMalformedHostPort) {
  EXPECT_THROW((void)Endpoint::parse_tcp("nohost"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse_tcp(":123"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse_tcp("host:"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse_tcp("host:banana"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse_tcp("host:70000"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse_tcp("host:-1"), std::invalid_argument);
}

// ----------------------------------------------------------- Listener --

TEST(ListenerTest, UnixListenerOwnsItsSocketFile) {
  const TempDir dir("unix");
  const std::string path = dir.path() + "/l.sock";
  {
    Listener l = Listener::listen(Endpoint::unix_socket(path));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_GE(l.fd(), 0);
    // A second bind over the same (stale) path must succeed: the daemon
    // owns its path and clears it first.
    l.close();
    EXPECT_FALSE(fs::exists(path));
  }
  Listener again = Listener::listen(Endpoint::unix_socket(path));
  EXPECT_TRUE(fs::exists(path));
}

TEST(ListenerTest, TcpEphemeralPortIsReported) {
  Listener l = Listener::listen(Endpoint::tcp("127.0.0.1", 0));
  EXPECT_NE(l.endpoint().port, 0);  // the actually-bound port
  const int fd = fppn::net::connect_endpoint(l.endpoint());
  ASSERT_GE(fd, 0) << std::strerror(errno);
  ::close(fd);
}

TEST(ListenerTest, ConnectToAbsentEndpointFails) {
  const TempDir dir("absent");
  EXPECT_LT(fppn::net::connect_endpoint(
                Endpoint::unix_socket(dir.path() + "/nothing.sock")),
            0);
}

// ------------------------------------------------------------- client --

TEST(NetClient, ExchangeWithAMissingSocketIsNulloptWithErrnoIntact) {
  const TempDir dir("missing");
  errno = 0;
  const std::optional<std::string> response =
      fppn::net::exchange(Endpoint::unix_socket(dir.path() + "/nothing.sock"), "hello");
  const int error = errno;
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(error, ENOENT) << std::strerror(error);
}

TEST(NetClient, PeerClosingWithoutReadingEndsTheExchangeWithoutSigpipe) {
  // SIGPIPE at its default disposition: a client write that raised it
  // would kill this process.
  const auto previous = std::signal(SIGPIPE, SIG_DFL);
  const TempDir dir("vanish");
  const Listener listener =
      Listener::listen(Endpoint::unix_socket(dir.path() + "/v.sock"));
  // The peer accepts one connection and closes it unread, so the client's
  // request of several MiB overflows the socket buffer and meets EPIPE.
  std::thread peer([&listener] {
    pollfd pfd{listener.fd(), POLLIN, 0};
    int conn = -1;
    while (conn < 0 && ::poll(&pfd, 1, 5000) > 0) {
      conn = listener.accept_connection();
    }
    if (conn >= 0) {
      ::close(conn);
    }
  });
  const std::optional<std::string> response =
      fppn::net::exchange(listener.endpoint(), std::string(8u << 20, 'x'));
  peer.join();
  std::signal(SIGPIPE, previous);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "");
}

// ---------------------------------------------------------- WorkQueue --

TEST(WorkQueueTest, RefusesWhenFullAndPreservesFifo) {
  WorkQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: backpressure, never blocking
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(WorkQueueTest, CloseStopsAdmissionsButDrainsBacklog) {
  WorkQueue<int> q(4);
  EXPECT_TRUE(q.try_push(10));
  EXPECT_TRUE(q.try_push(11));
  q.close();
  EXPECT_FALSE(q.try_push(12));
  EXPECT_EQ(q.pop().value(), 10);  // the backlog survives close()
  EXPECT_EQ(q.pop().value(), 11);
  EXPECT_FALSE(q.pop().has_value());  // drained: the consumer exit signal
}

TEST(WorkQueueTest, PopBlocksUntilAPushArrives) {
  WorkQueue<int> q(1);
  std::atomic<int> got{0};
  std::thread consumer([&] { got = q.pop().value(); });
  EXPECT_TRUE(q.try_push(42));
  consumer.join();
  EXPECT_EQ(got.load(), 42);
}

// ------------------------------------------------------------ Reactor --

/// An echo reactor on its own thread: on_request answers "echo:<text>"
/// synchronously; rejects get fixed lines the tests assert on.
class EchoReactor {
 public:
  explicit EchoReactor(std::size_t max_request_bytes = 0) {
    Reactor::Events events;
    events.on_request = [this](std::uint64_t conn, std::string request) {
      reactor_->submit_response(conn, "echo:" + request);
    };
    events.on_oversized = [this](std::uint64_t conn, std::size_t) {
      reactor_->submit_response(conn, "too-big\n");
    };
    events.on_read_error = [this](std::uint64_t conn, int error) {
      last_read_error_ = error;
      reactor_->submit_response(conn, "read-error\n");
    };
    reactor_ = std::make_unique<Reactor>(events, Reactor::Options{max_request_bytes});
  }

  void add(Listener listener) { reactor_->add_listener(std::move(listener)); }
  void start() {
    thread_ = std::thread([this] { reactor_->run(); });
  }
  void stop_and_join() {
    reactor_->request_stop();
    thread_.join();
  }
  [[nodiscard]] Reactor& reactor() { return *reactor_; }
  [[nodiscard]] int last_read_error() const { return last_read_error_.load(); }

 private:
  std::unique_ptr<Reactor> reactor_;
  std::thread thread_;
  std::atomic<int> last_read_error_{0};
};

TEST(ReactorTest, EchoesARequest) {
  const TempDir dir("echo");
  const std::string path = dir.path() + "/r.sock";
  EchoReactor echo;
  echo.add(Listener::listen(Endpoint::unix_socket(path)));
  echo.start();
  EXPECT_EQ(roundtrip(Endpoint::unix_socket(path), "hello"), "echo:hello");
  echo.stop_and_join();
  EXPECT_EQ(echo.reactor().counters().accepted, 1u);
  EXPECT_EQ(echo.reactor().counters().requests, 1u);
}

TEST(ReactorTest, LargeResponseReachesASlowReader) {
  // The response dwarfs any socket buffer, so the reactor must take
  // EAGAIN on write and finish over many POLLOUT rounds while the client
  // drains slowly — the partial-write path.
  const TempDir dir("slow");
  const std::string path = dir.path() + "/r.sock";
  EchoReactor echo;
  echo.add(Listener::listen(Endpoint::unix_socket(path)));
  echo.start();

  const std::string request(4 * 1024 * 1024, 'x');
  const int fd = fppn::net::connect_endpoint(Endpoint::unix_socket(path));
  ASSERT_GE(fd, 0);
  write_all(fd, request);
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      if (response.size() % (64 * 1024) < sizeof(buf)) {
        ::usleep(500);  // stay slower than the reactor can write
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    break;
  }
  ::close(fd);
  EXPECT_EQ(response.size(), request.size() + 5);
  EXPECT_EQ(response.compare(0, 5, "echo:"), 0);
  EXPECT_EQ(response.substr(5), request);
  echo.stop_and_join();
}

TEST(ReactorTest, OversizedRequestIsRejectedNotDispatched) {
  const TempDir dir("oversize");
  const std::string path = dir.path() + "/r.sock";
  EchoReactor echo(/*max_request_bytes=*/16);
  echo.add(Listener::listen(Endpoint::unix_socket(path)));
  echo.start();
  const std::string big(100, 'y');
  EXPECT_EQ(roundtrip(Endpoint::unix_socket(path), big), "too-big\n");
  // A request inside the cap still echoes — the connection-level reject
  // did not poison the reactor.
  EXPECT_EQ(roundtrip(Endpoint::unix_socket(path), "ok"), "echo:ok");
  echo.stop_and_join();
  EXPECT_EQ(echo.reactor().counters().oversized, 1u);
  EXPECT_EQ(echo.reactor().counters().requests, 1u);
}

TEST(ReactorTest, TornTcpRequestRaisesReadErrorNotATruncatedDispatch) {
  // Regression for the PR 8 daemon bug: read_to_eof() treated a hard
  // read() error like EOF and solved the truncated request. A client
  // that aborts mid-send (RST via SO_LINGER{1,0}) must surface as
  // on_read_error — on_request must never see the partial bytes.
  EchoReactor echo;
  Listener listener = Listener::listen(Endpoint::tcp("127.0.0.1", 0));
  const Endpoint endpoint = listener.endpoint();
  echo.add(std::move(listener));
  echo.start();

  const int fd = fppn::net::connect_endpoint(endpoint);
  ASSERT_GE(fd, 0);
  write_all(fd, "partial request");
  struct linger hard_close;
  hard_close.l_onoff = 1;
  hard_close.l_linger = 0;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close,
                         sizeof(hard_close)),
            0);
  ::close(fd);  // RST instead of FIN: the server read() fails hard

  // The reactor notices asynchronously; wait briefly for the callback.
  // (Its counters may only be read once run() has returned.)
  for (int i = 0; i < 100 && echo.last_read_error() == 0; ++i) {
    ::usleep(10 * 1000);
  }
  echo.stop_and_join();
  EXPECT_EQ(echo.reactor().counters().read_errors, 1u);
  EXPECT_EQ(echo.reactor().counters().requests, 0u);  // never dispatched
  EXPECT_EQ(echo.last_read_error(), ECONNRESET);
}

TEST(ReactorTest, ServesConcurrentClients) {
  const TempDir dir("many");
  const std::string path = dir.path() + "/r.sock";
  EchoReactor echo;
  echo.add(Listener::listen(Endpoint::unix_socket(path)));
  echo.start();

  constexpr int kClients = 16;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[static_cast<std::size_t>(i)] =
          roundtrip(Endpoint::unix_socket(path), "client-" + std::to_string(i));
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(responses[static_cast<std::size_t>(i)],
              "echo:client-" + std::to_string(i));
  }
  echo.stop_and_join();
  EXPECT_EQ(echo.reactor().counters().requests,
            static_cast<std::uint64_t>(kClients));
}

TEST(ReactorTest, DrainAbortsHalfReadConnections) {
  const TempDir dir("drain");
  const std::string path = dir.path() + "/r.sock";
  EchoReactor echo;
  echo.add(Listener::listen(Endpoint::unix_socket(path)));
  echo.start();

  // Connect and send bytes without EOF: the connection is mid-read when
  // the drain begins, so the reactor drops it (no response).
  const int fd = fppn::net::connect_endpoint(Endpoint::unix_socket(path));
  ASSERT_GE(fd, 0);
  write_all(fd, "never finished");
  // A completed roundtrip on a later connection proves the reactor has
  // accepted the first one (accepts drain the backlog in order), without
  // reading its counters while run() is still going.
  EXPECT_EQ(roundtrip(Endpoint::unix_socket(path), "later"), "echo:later");
  echo.stop_and_join();
  EXPECT_EQ(read_to_eof(fd), "");  // dropped, not answered
  ::close(fd);
  EXPECT_EQ(echo.reactor().counters().aborted, 1u);
  EXPECT_FALSE(fs::exists(path));  // the drain unlinked the socket file
}

}  // namespace
