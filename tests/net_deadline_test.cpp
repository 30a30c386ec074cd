// Reactor deadline tests: the three per-connection timers in isolation
// against a real socket peer misbehaving in exactly the way each timer
// exists for — a connected-but-silent client (idle), a slow-loris
// trickling one byte at a time so the request never completes (request),
// and a reader that takes a huge response but stops draining it (write).
// Each stalled peer must be cut within 2x its configured deadline while
// a healthy client on the same reactor is answered normally, and a
// well-behaved connection must finish with zero timeouts counted.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "net/listener.hpp"
#include "net/reactor.hpp"

namespace {

namespace fs = std::filesystem;
using fppn::net::Endpoint;
using fppn::net::Listener;
using fppn::net::Reactor;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_net_deadline_test_" + tag + "_" + std::to_string(::getpid())))
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

std::string roundtrip(const Endpoint& endpoint, const std::string& request) {
  return fppn::net::exchange(endpoint, request).value_or("<connect failed>");
}

/// Echo reactor with deadlines armed, recording every timeout event.
class DeadlineReactor {
 public:
  explicit DeadlineReactor(Reactor::Options options, std::string response = "") {
    Reactor::Events events;
    events.on_request = [this, response](std::uint64_t conn, std::string request) {
      reactor_->submit_response(conn,
                                response.empty() ? "echo:" + request : response);
    };
    events.on_timeout = [this](std::uint64_t, Reactor::TimeoutKind kind) {
      switch (kind) {
        case Reactor::TimeoutKind::kIdle:
          ++idle_;
          break;
        case Reactor::TimeoutKind::kRequest:
          ++request_;
          break;
        case Reactor::TimeoutKind::kWrite:
          ++write_;
          break;
      }
    };
    reactor_ = std::make_unique<Reactor>(events, options);
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
  [[nodiscard]] int idle_timeouts() const { return idle_.load(); }
  [[nodiscard]] int request_timeouts() const { return request_.load(); }
  [[nodiscard]] int write_timeouts() const { return write_.load(); }

 private:
  std::unique_ptr<Reactor> reactor_;
  std::thread thread_;
  std::atomic<int> idle_{0};
  std::atomic<int> request_{0};
  std::atomic<int> write_{0};
};

TEST(NetDeadline, IdleConnectionIsClosedWithinTwiceTheDeadline) {
  const TempDir dir("idle");
  const std::string path = dir.path() + "/r.sock";
  constexpr int kDeadlineMs = 200;
  Reactor::Options options;
  options.idle_timeout_ms = kDeadlineMs;
  DeadlineReactor echo(options);
  echo.add(Listener::listen(Endpoint::unix_socket(path)));
  echo.start();

  // Connect and stay silent: the reactor must hang up on its own — a
  // blocking read on our side returning EOF is the close observed from
  // the peer's seat.
  const int fd = fppn::net::connect_endpoint(Endpoint::unix_socket(path));
  ASSERT_GE(fd, 0);
  const Clock::time_point start = Clock::now();
  EXPECT_EQ(read_to_eof(fd), "");
  const double elapsed = ms_since(start);
  ::close(fd);
  EXPECT_LE(elapsed, 2.0 * kDeadlineMs) << elapsed;
  EXPECT_GE(elapsed, 0.5 * kDeadlineMs) << elapsed;  // not cut prematurely

  // The deadline is idle-only: a prompt request still round-trips.
  EXPECT_EQ(roundtrip(Endpoint::unix_socket(path), "hi"), "echo:hi");
  echo.stop_and_join();
  EXPECT_EQ(echo.idle_timeouts(), 1);
  EXPECT_EQ(echo.reactor().counters().idle_timeouts, 1u);
  EXPECT_EQ(echo.reactor().counters().requests, 1u);
}

TEST(NetDeadline, SlowLorisDripNeverExtendsTheRequestDeadline) {
  const TempDir dir("loris");
  const std::string path = dir.path() + "/r.sock";
  constexpr int kDeadlineMs = 250;
  std::signal(SIGPIPE, SIG_IGN);
  Reactor::Options options;
  options.request_timeout_ms = kDeadlineMs;
  DeadlineReactor echo(options);
  echo.add(Listener::listen(Endpoint::unix_socket(path)));
  echo.start();

  // Drip one byte every 25 ms, never finishing the request. If each byte
  // re-armed the deadline (the classic slow-loris hole), this connection
  // would live forever; the window runs first byte -> complete request,
  // so it must be cut within 2x regardless of the drip.
  const int fd = fppn::net::connect_endpoint(Endpoint::unix_socket(path));
  ASSERT_GE(fd, 0);
  const Clock::time_point start = Clock::now();
  bool closed = false;
  while (ms_since(start) < 4.0 * kDeadlineMs) {
    const ssize_t n = ::write(fd, "x", 1);
    if (n < 0 && errno != EINTR && errno != EAGAIN) {
      closed = true;  // EPIPE/ECONNRESET: the reactor hung up
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 25) > 0) {
      char buf[16];
      if (::read(fd, buf, sizeof(buf)) == 0) {
        closed = true;  // EOF: ditto
        break;
      }
    }
  }
  const double elapsed = ms_since(start);
  ::close(fd);
  EXPECT_TRUE(closed);
  EXPECT_LE(elapsed, 2.0 * kDeadlineMs) << elapsed;

  // A whole request well inside the window is unaffected.
  EXPECT_EQ(roundtrip(Endpoint::unix_socket(path), "quick"), "echo:quick");
  echo.stop_and_join();
  EXPECT_EQ(echo.request_timeouts(), 1);
  EXPECT_EQ(echo.reactor().counters().request_timeouts, 1u);
  EXPECT_EQ(echo.reactor().counters().requests, 1u);  // loris never dispatched
}

TEST(NetDeadline, StalledReaderIsCutByTheWriteDeadline) {
  const TempDir dir("stall");
  const std::string path = dir.path() + "/r.sock";
  constexpr int kDeadlineMs = 200;
  Reactor::Options options;
  options.write_timeout_ms = kDeadlineMs;
  // A response far beyond any socket buffer: flushing it *requires* the
  // peer to keep draining, which this peer will not do.
  const std::string huge(2 * 1024 * 1024, 'z');
  DeadlineReactor echo(options, huge);
  echo.add(Listener::listen(Endpoint::unix_socket(path)));
  echo.start();

  const int fd = fppn::net::connect_endpoint(Endpoint::unix_socket(path));
  ASSERT_GE(fd, 0);
  write_all(fd, "go");
  ::shutdown(fd, SHUT_WR);
  // Read a first chunk (so the write began), then stop draining entirely.
  char buf[4096];
  ssize_t n;
  do {
    n = ::read(fd, buf, sizeof(buf));
  } while (n < 0 && errno == EINTR);
  ASSERT_GT(n, 0);
  const Clock::time_point stalled_at = Clock::now();
  for (int i = 0; i < 200 && echo.write_timeouts() == 0; ++i) {
    ::usleep(10 * 1000);
  }
  const double elapsed = ms_since(stalled_at);
  EXPECT_EQ(echo.write_timeouts(), 1);
  EXPECT_LE(elapsed, 2.0 * kDeadlineMs) << elapsed;
  ::close(fd);

  // The write deadline is progress-based: a slow-but-draining reader of
  // the same huge response survives (every successful write re-arms it).
  const std::string drained = roundtrip(Endpoint::unix_socket(path), "again");
  EXPECT_EQ(drained, huge);
  echo.stop_and_join();
  EXPECT_EQ(echo.reactor().counters().write_timeouts, 1u);
}

TEST(NetDeadline, WellBehavedTrafficCountsNoTimeouts) {
  const TempDir dir("clean");
  const std::string path = dir.path() + "/r.sock";
  Reactor::Options options;
  options.idle_timeout_ms = 500;
  options.request_timeout_ms = 500;
  options.write_timeout_ms = 500;
  DeadlineReactor echo(options);
  echo.add(Listener::listen(Endpoint::unix_socket(path)));
  echo.start();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(roundtrip(Endpoint::unix_socket(path), std::to_string(i)),
              "echo:" + std::to_string(i));
  }
  echo.stop_and_join();
  EXPECT_EQ(echo.reactor().counters().idle_timeouts, 0u);
  EXPECT_EQ(echo.reactor().counters().request_timeouts, 0u);
  EXPECT_EQ(echo.reactor().counters().write_timeouts, 0u);
  EXPECT_EQ(echo.reactor().counters().requests, 8u);
}

}  // namespace
