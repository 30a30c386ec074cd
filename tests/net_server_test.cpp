// Tests for net::Server — the assembled serving stack (reactor + bounded
// work queue + solver pool) driven over real Unix sockets, with a stub
// handler instead of the engine so every scheduling decision is the
// test's own: deterministic backpressure (a full queue answers the
// overload line immediately, while the occupied solver and the queued
// request both finish), drain semantics (stop() finishes the backlog
// before run() returns), queue-wait measurement, queue-deadline shedding
// (stale requests answered without ever reaching the handler), a
// slow-loris client cut by the request deadline while healthy traffic is
// served, and large responses surviving a slow reader end to end.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/listener.hpp"
#include "net/server.hpp"

namespace {

namespace fs = std::filesystem;
using fppn::net::Endpoint;
using fppn::net::Listener;
using fppn::net::RequestInfo;
using fppn::net::Server;
using fppn::net::ServerOptions;
using fppn::net::ServerProtocol;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_net_server_test_" + tag + "_" + std::to_string(::getpid())))
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

std::string roundtrip(const std::string& socket_path, const std::string& request) {
  return fppn::net::exchange(Endpoint::unix_socket(socket_path), request)
      .value_or("<connect failed>");
}

TEST(NetServer, FullQueueAnswersOverloadImmediatelyWhileWorkFinishes) {
  const TempDir dir("overload");
  const std::string socket_path = dir.path() + "/s.sock";

  // One solver, one queue slot, and a handler the test can hold shut:
  // with the solver occupied and the slot taken, every further request
  // must get the overload line *now* — that is the backpressure contract.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> active{0};

  ServerOptions options;
  options.solver_threads = 1;
  options.queue_capacity = 1;
  ServerProtocol protocol;
  protocol.overloaded = [] { return std::string("OVERLOADED\n"); };
  Server server(options, protocol, [&](std::string request, const RequestInfo&) {
    ++active;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return "ok:" + request + "\n";
  });
  server.add_listener(Listener::listen(Endpoint::unix_socket(socket_path)));
  std::thread server_thread([&] { server.run(); });

  // First request occupies the solver...
  std::string response_a;
  std::thread client_a([&] { response_a = roundtrip(socket_path, "a"); });
  for (int i = 0; i < 500 && active.load() == 0; ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_EQ(active.load(), 1);

  // ...the second fills the one queue slot...
  std::string response_b;
  std::thread client_b([&] { response_b = roundtrip(socket_path, "b"); });
  for (int i = 0; i < 500 && server.queue_size() == 0; ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_EQ(server.queue_size(), 1u);

  // ...and every request after that is rejected, synchronously.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(roundtrip(socket_path, "burst-" + std::to_string(i)),
              "OVERLOADED\n");
  }

  // Releasing the handler lets the occupied solver and the queued
  // request complete normally — rejection never cancelled admitted work.
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  client_a.join();
  client_b.join();
  EXPECT_EQ(response_a, "ok:a\n");
  EXPECT_EQ(response_b, "ok:b\n");

  server.stop();
  server_thread.join();
  EXPECT_EQ(server.reactor_counters().requests, 5u);  // 2 served + 3 rejected
}

TEST(NetServer, StopDrainsTheBacklogBeforeReturning) {
  const TempDir dir("drain");
  const std::string socket_path = dir.path() + "/s.sock";

  std::atomic<int> handled{0};
  ServerOptions options;
  options.solver_threads = 1;
  options.queue_capacity = 8;
  Server server(options, ServerProtocol{}, [&](std::string request, const RequestInfo&) {
    ++handled;
    ::usleep(20 * 1000);  // keep a real backlog behind the single solver
    return "done:" + request + "\n";
  });
  server.add_listener(Listener::listen(Endpoint::unix_socket(socket_path)));
  std::thread server_thread([&] { server.run(); });

  constexpr int kClients = 3;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> connected{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      std::string& response = responses[static_cast<std::size_t>(i)];
      const int fd = fppn::net::connect_endpoint(Endpoint::unix_socket(socket_path));
      ++connected;
      if (fd < 0) {
        response = "<connect failed: " + std::string(std::strerror(errno)) + ">";
        return;
      }
      write_all(fd, std::to_string(i));
      ::shutdown(fd, SHUT_WR);
      response = read_to_eof(fd);
      ::close(fd);
    });
  }
  // Stop mid-flight: every client has connected, at least one request is
  // being handled, the rest are queued or about to dispatch. Every
  // admitted request must still be answered — run() returning means
  // drained, not dropped. (Waiting for the connects keeps a slow client
  // thread from finding the listener already closed.)
  for (int i = 0; i < 500 && (handled.load() == 0 || connected.load() < kClients);
       ++i) {
    ::usleep(5 * 1000);
  }
  server.stop();
  for (std::thread& t : clients) {
    t.join();
  }
  server_thread.join();

  int answered = 0;
  for (int i = 0; i < kClients; ++i) {
    const std::string& r = responses[static_cast<std::size_t>(i)];
    if (r == "done:" + std::to_string(i) + "\n") {
      ++answered;
    } else {
      // A client that raced the drain (connection still reading when the
      // listeners closed) is dropped with an empty response — never a
      // partial or corrupt one.
      EXPECT_EQ(r, "") << r;
    }
  }
  EXPECT_GE(answered, 1);
  EXPECT_EQ(handled.load(), answered);
}

TEST(NetServer, ReportsNonNegativeQueueWait) {
  const TempDir dir("wait");
  const std::string socket_path = dir.path() + "/s.sock";

  std::atomic<bool> saw_request{false};
  std::atomic<bool> wait_non_negative{false};
  ServerOptions options;
  Server server(options, ServerProtocol{},
                [&](std::string request, const RequestInfo& info) {
                  saw_request = true;
                  wait_non_negative = info.queue_wait_ms >= 0.0;
                  return "ok:" + request + "\n";
                });
  server.add_listener(Listener::listen(Endpoint::unix_socket(socket_path)));
  std::thread server_thread([&] { server.run(); });

  EXPECT_EQ(roundtrip(socket_path, "ping"), "ok:ping\n");
  server.stop();
  server_thread.join();
  EXPECT_TRUE(saw_request.load());
  EXPECT_TRUE(wait_non_negative.load());
}

TEST(NetServer, OversizedRequestsUseTheProtocolHook) {
  const TempDir dir("oversize");
  const std::string socket_path = dir.path() + "/s.sock";

  std::atomic<std::size_t> reported_bytes{0};
  ServerOptions options;
  options.max_request_bytes = 32;
  ServerProtocol protocol;
  protocol.oversized = [&](std::size_t bytes_seen) {
    reported_bytes = bytes_seen;
    return std::string("TOO-BIG\n");
  };
  Server server(options, protocol, [](std::string request, const RequestInfo&) {
    return "ok:" + request + "\n";
  });
  server.add_listener(Listener::listen(Endpoint::unix_socket(socket_path)));
  std::thread server_thread([&] { server.run(); });

  EXPECT_EQ(roundtrip(socket_path, std::string(200, 'z')), "TOO-BIG\n");
  EXPECT_GT(reported_bytes.load(), 32u);
  // The cap is per connection; a small request still goes through.
  EXPECT_EQ(roundtrip(socket_path, "small"), "ok:small\n");
  server.stop();
  server_thread.join();
}

TEST(NetServer, QueueDeadlineShedsStaleWorkWithoutSolving) {
  const TempDir dir("shed");
  const std::string socket_path = dir.path() + "/s.sock";

  // One solver held busy for far longer than the queue deadline: every
  // request queued behind it is stale by the time it pops, so it must be
  // answered with the shed line and the handler must never see it —
  // solving work nobody is waiting for anymore burns the solver slot the
  // fresh requests need.
  std::atomic<int> handled{0};
  ServerOptions options;
  options.solver_threads = 1;
  options.queue_capacity = 4;
  options.queue_deadline_ms = 30;
  ServerProtocol protocol;
  protocol.deadline_exceeded = [] { return std::string("SHED\n"); };
  Server server(options, protocol, [&](std::string request, const RequestInfo&) {
    ++handled;
    if (request == "slow") {
      ::usleep(150 * 1000);
    }
    return "ok:" + request + "\n";
  });
  server.add_listener(Listener::listen(Endpoint::unix_socket(socket_path)));
  std::thread server_thread([&] { server.run(); });

  std::string slow_response;
  std::thread slow_client([&] { slow_response = roundtrip(socket_path, "slow"); });
  for (int i = 0; i < 500 && handled.load() == 0; ++i) {
    ::usleep(5 * 1000);
  }
  ASSERT_EQ(handled.load(), 1);

  // These queue up behind the 150 ms solve, so their queue wait blows
  // the 30 ms deadline before they ever pop.
  constexpr int kStale = 3;
  std::vector<std::string> stale(kStale);
  std::vector<std::thread> clients;
  for (int i = 0; i < kStale; ++i) {
    clients.emplace_back([&, i] {
      stale[static_cast<std::size_t>(i)] =
          roundtrip(socket_path, "stale-" + std::to_string(i));
    });
  }
  slow_client.join();
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(slow_response, "ok:slow\n");  // admitted in time: still solved
  for (int i = 0; i < kStale; ++i) {
    EXPECT_EQ(stale[static_cast<std::size_t>(i)], "SHED\n");
  }
  EXPECT_EQ(handled.load(), 1);  // the stale requests never reached the handler

  // Shedding is per request, not a poisoned state: fresh traffic solves.
  EXPECT_EQ(roundtrip(socket_path, "fresh"), "ok:fresh\n");
  server.stop();
  server_thread.join();
}

TEST(NetServer, SlowLorisIsCutWhileHealthyClientsAreServed) {
  const TempDir dir("loris");
  const std::string socket_path = dir.path() + "/s.sock";
  constexpr int kDeadlineMs = 250;
  std::signal(SIGPIPE, SIG_IGN);

  ServerOptions options;
  options.solver_threads = 2;
  options.request_timeout_ms = kDeadlineMs;
  Server server(options, ServerProtocol{},
                [](std::string request, const RequestInfo&) {
                  return "ok:" + request + "\n";
                });
  server.add_listener(Listener::listen(Endpoint::unix_socket(socket_path)));
  std::thread server_thread([&] { server.run(); });

  // The attack: one byte every 25 ms, never completing a request. The
  // acceptance bar is that it is disconnected within 2x the deadline
  // *while* 16 healthy clients are answered normally — the loris must
  // not be able to park itself in the reactor at the healthy traffic's
  // expense.
  std::atomic<bool> loris_closed{false};
  std::atomic<double> loris_lifetime_ms{0.0};
  std::thread loris([&] {
    const int fd = fppn::net::connect_endpoint(Endpoint::unix_socket(socket_path));
    if (fd < 0) {
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count() < 4.0 * kDeadlineMs) {
      if (::write(fd, "x", 1) < 0 && errno != EINTR && errno != EAGAIN) {
        loris_closed = true;
        break;
      }
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 25) > 0) {
        char buf[16];
        if (::read(fd, buf, sizeof(buf)) == 0) {
          loris_closed = true;
          break;
        }
      }
    }
    loris_lifetime_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ::close(fd);
  });

  constexpr int kClients = 16;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[static_cast<std::size_t>(i)] =
          roundtrip(socket_path, "healthy-" + std::to_string(i));
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  loris.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(responses[static_cast<std::size_t>(i)],
              "ok:healthy-" + std::to_string(i) + "\n");
  }
  EXPECT_TRUE(loris_closed.load());
  EXPECT_LE(loris_lifetime_ms.load(), 2.0 * kDeadlineMs) << loris_lifetime_ms.load();
  server.stop();
  server_thread.join();
  EXPECT_EQ(server.reactor_counters().request_timeouts, 1u);
  EXPECT_EQ(server.reactor_counters().requests,
            static_cast<std::uint64_t>(kClients));
}

TEST(NetServer, LargeResponseSurvivesASlowReader) {
  const TempDir dir("big");
  const std::string socket_path = dir.path() + "/s.sock";

  const std::string payload(2 * 1024 * 1024, 'p');
  ServerOptions options;
  Server server(options, ServerProtocol{},
                [&](std::string, const RequestInfo&) { return payload; });
  server.add_listener(Listener::listen(Endpoint::unix_socket(socket_path)));
  std::thread server_thread([&] { server.run(); });

  const int fd = fppn::net::connect_endpoint(Endpoint::unix_socket(socket_path));
  ASSERT_GE(fd, 0);
  write_all(fd, "go");
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      ::usleep(200);  // slower than the reactor can flush
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    break;
  }
  ::close(fd);
  EXPECT_EQ(response, payload);
  server.stop();
  server_thread.join();
}

}  // namespace
