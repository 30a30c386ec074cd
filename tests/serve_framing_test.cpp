// Request framing of the serving stack, swept at its edges: the real
// net::Server + engine::SolveService + engine::Engine wiring (the daemon
// minus flag parsing) with the request size capped at exactly the size
// of examples/fig1.fppn.
//
// Every case must end in an error response or a closed connection, and
// none may crash the server, hang a solver thread or leak a queue slot:
//   - a request exactly at the size limit is solved, one byte over is
//     rejected with the oversize line;
//   - a request split into 1-byte writes frames exactly like one write,
//     at and over the limit;
//   - a peer that closes mid-request (FIN on a Unix socket, RST on TCP)
//     gets no answer, and an RST-torn request is never handled;
//   - a peer that half-closes after a truncated request gets a parse
//     error, and an empty request an error.
// Each test then reads the `stats` verb: the counters must account for
// every connection exactly, with nothing overloaded, the queue empty, a
// fresh solve still answered, and the drain completing.
//
// The stack is wired by SolveService::protocol() and handler(), as in the
// daemon; the ServeProtocol tests call each protocol hook directly and
// check its response line and the one stats counter it moves.
//
// The process does not ignore SIGPIPE, so a response written to a peer
// that is gone must not raise it.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "net/listener.hpp"
#include "net/server.hpp"

namespace fppn {
namespace {

namespace fs = std::filesystem;

const std::string kFig1Path =
    std::string(FPPN_TEST_SOURCE_DIR) + "/../examples/fig1.fppn";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Sends `data` one byte per write (net::write_all never raises SIGPIPE,
/// so a server that already closed the connection cannot kill the client).
bool send_bytewise(int fd, const std::string& data) {
  for (const char byte : data) {
    if (!net::write_all(fd, std::string(1, byte))) {
      return false;
    }
  }
  return true;
}

/// The stats line's "name value" pairs.
std::map<std::string, std::string> parse_stats(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::istringstream ss(line);
  std::string word;
  ss >> word >> word;  // "fppn-serve stats"
  std::string value;
  while (ss >> word >> value) {
    fields[word] = value;
  }
  return fields;
}

/// The stack on a Unix socket and an ephemeral TCP port, serving from
/// construction until stop().
class FramingStack {
 public:
  explicit FramingStack(std::size_t max_request_bytes)
      : dir_(fs::temp_directory_path() /
             ("fppn_serve_framing_test_" + std::to_string(::getpid()))),
        service_(engine_, service_options(max_request_bytes)),
        server_(server_options(max_request_bytes), service_.protocol(),
                service_.handler()) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    unix_ = net::Endpoint::unix_socket((dir_ / "s.sock").string());
    server_.add_listener(net::Listener::listen(unix_));
    net::Listener tcp = net::Listener::listen(net::Endpoint::tcp("127.0.0.1", 0));
    tcp_ = tcp.endpoint();
    server_.add_listener(std::move(tcp));
    thread_ = std::thread([this] { server_.run(); });
  }
  ~FramingStack() {
    stop();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  FramingStack(const FramingStack&) = delete;
  FramingStack& operator=(const FramingStack&) = delete;

  [[nodiscard]] const net::Endpoint& unix_endpoint() const { return unix_; }
  [[nodiscard]] const net::Endpoint& tcp_endpoint() const { return tcp_; }

  /// One EOF-framed request over the Unix socket (net::exchange), or the
  /// same framing with the request sent in 1-byte writes.
  [[nodiscard]] std::string exchange(const std::string& request,
                                     bool bytewise = false) const {
    if (!bytewise) {
      return net::exchange(unix_, request).value_or("<connect failed>");
    }
    const int fd = net::connect_endpoint(unix_);
    if (fd < 0) {
      return "<connect failed>";
    }
    send_bytewise(fd, request);
    ::shutdown(fd, SHUT_WR);
    std::string response = net::read_to_eof(fd);
    ::close(fd);
    return response;
  }

  /// Polls the stats verb (up to ~5 s; some connections are handled
  /// after the client has gone) until every field in `expected` reads its
  /// value, then checks them.
  void expect_stats(const std::map<std::string, std::string>& expected) const {
    std::map<std::string, std::string> fields;
    for (int i = 0; i < 100; ++i) {
      fields = parse_stats(exchange("stats"));
      bool settled = true;
      for (const auto& [name, value] : expected) {
        settled = settled && fields[name] == value;
      }
      if (settled) {
        break;
      }
      ::usleep(50 * 1000);
    }
    for (const auto& [name, value] : expected) {
      EXPECT_EQ(fields[name], value) << name;
    }
  }

  /// The no-leak checks every test ends with: nothing queued, every
  /// solver still answers (one solve per solver thread at once), and the
  /// drain completes.
  void expect_healthy(const std::string& request) {
    EXPECT_EQ(server_.queue_size(), 0u);
    std::string responses[kSolverThreads];
    std::thread clients[kSolverThreads];
    for (int i = 0; i < kSolverThreads; ++i) {
      clients[i] = std::thread([&, i] { responses[i] = exchange(request); });
    }
    for (int i = 0; i < kSolverThreads; ++i) {
      clients[i].join();
      EXPECT_EQ(responses[i].rfind("fppn-serve ok ", 0), 0u) << responses[i];
    }
    stop();
    EXPECT_EQ(server_.queue_size(), 0u);
  }

 private:
  static constexpr int kSolverThreads = 2;

  static engine::ServiceOptions service_options(std::size_t max_request_bytes) {
    engine::ServiceOptions options;
    options.search_workers = 1;
    options.max_request_bytes = max_request_bytes;
    return options;
  }

  static net::ServerOptions server_options(std::size_t max_request_bytes) {
    net::ServerOptions options;
    options.solver_threads = kSolverThreads;
    options.queue_capacity = 4;
    options.max_request_bytes = max_request_bytes;
    return options;
  }

  void stop() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }

  fs::path dir_;
  engine::Engine engine_;
  engine::SolveService service_;
  net::Server server_;
  net::Endpoint unix_;
  net::Endpoint tcp_;
  std::thread thread_;
};

std::string too_large_line(std::size_t limit) {
  return "fppn-serve error: request too large: exceeds --max-request-bytes " +
         std::to_string(limit) + "\n";
}

/// A prefix of fig1 that ends mid-statement ("...period" cut short), so
/// it can only parse as an error.
std::string truncated_fig1(const std::string& fig1) {
  const std::string cut = "process FilterA periodic per";
  const std::size_t at = fig1.find(cut);
  return fig1.substr(0, at + cut.size());
}

TEST(ServeFraming, AtTheSizeLimitIsSolvedAndOneByteOverIsRejected) {
  const std::string fig1 = slurp(kFig1Path);
  ASSERT_GT(fig1.size(), 100u);
  FramingStack stack(fig1.size());

  const std::string at_limit = stack.exchange(fig1);
  EXPECT_EQ(at_limit.rfind("fppn-serve ok fingerprint ", 0), 0u) << at_limit;
  EXPECT_EQ(stack.exchange(fig1 + "\n"), too_large_line(fig1.size()));

  stack.expect_stats({{"requests", "1"}, {"ok", "1"}, {"oversized", "1"}, {"overloaded", "0"}});
  stack.expect_healthy(fig1);
}

TEST(ServeFraming, OneByteWritesFrameLikeOneWrite) {
  const std::string fig1 = slurp(kFig1Path);
  FramingStack stack(fig1.size());

  (void)stack.exchange(fig1);  // fills the cache: later answers are identical
  const std::string whole = stack.exchange(fig1);
  EXPECT_EQ(whole.rfind("fppn-serve ok fingerprint ", 0), 0u) << whole;
  EXPECT_EQ(stack.exchange(fig1, /*bytewise=*/true), whole);
  EXPECT_EQ(stack.exchange(fig1 + "\n", /*bytewise=*/true), too_large_line(fig1.size()));

  stack.expect_stats({{"requests", "3"}, {"ok", "3"}, {"oversized", "1"}, {"overloaded", "0"}});
  stack.expect_healthy(fig1);
}

TEST(ServeFraming, PeerClosingMidRequestGetsNoAnswerAndNothingLeaks) {
  const std::string fig1 = slurp(kFig1Path);
  const std::string cut = truncated_fig1(fig1);
  FramingStack stack(fig1.size());

  // close() mid-request on the Unix socket: the FIN alone would read as
  // the request delimiter, but the socket also hangs up, so the torn
  // prefix is a read error, never parsed or answered.
  {
    const int fd = net::connect_endpoint(stack.unix_endpoint());
    ASSERT_GE(fd, 0) << std::strerror(errno);
    ASSERT_TRUE(send_bytewise(fd, cut));
    ::close(fd);
  }
  // RST mid-request on TCP: a read error, never solved.
  {
    const int fd = net::connect_endpoint(stack.tcp_endpoint());
    ASSERT_GE(fd, 0) << std::strerror(errno);
    ASSERT_TRUE(send_bytewise(fd, cut));
    struct linger hard_close;
    hard_close.l_onoff = 1;
    hard_close.l_linger = 0;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close)),
              0);
    ::close(fd);
  }
  // A peer that sends part of an oversized request and then vanishes.
  {
    const int fd = net::connect_endpoint(stack.unix_endpoint());
    ASSERT_GE(fd, 0) << std::strerror(errno);
    ASSERT_TRUE(send_bytewise(fd, fig1 + fig1.substr(0, 10)));
    ::close(fd);
  }

  stack.expect_stats({{"requests", "0"},
                      {"errors", "0"},
                      {"read-errors", "2"},
                      {"oversized", "1"},
                      {"overloaded", "0"}});
  stack.expect_healthy(fig1);
}

TEST(ServeFraming, HalfCloseBeforeTheRequestEndsIsAnErrorResponse) {
  const std::string fig1 = slurp(kFig1Path);
  FramingStack stack(fig1.size());

  const std::string cut = stack.exchange(truncated_fig1(fig1), /*bytewise=*/true);
  EXPECT_EQ(cut.rfind("fppn-serve error: parse error: ", 0), 0u) << cut;
  const std::string empty = stack.exchange("");
  EXPECT_EQ(empty.rfind("fppn-serve error: ", 0), 0u) << empty;

  stack.expect_stats({{"requests", "2"}, {"errors", "2"}, {"overloaded", "0"}});
  stack.expect_healthy(fig1);
}

/// The stats line's counters: every field but the times and the rate.
std::map<std::string, std::string> counters(engine::SolveService& service) {
  std::map<std::string, std::string> fields = parse_stats(service.render_stats());
  for (const char* name : {"hit-rate", "p50-ms", "p99-ms", "uptime-ms"}) {
    fields.erase(name);
  }
  return fields;
}

/// Calls one hook of a fresh service's protocol() and checks that it
/// answers `line` and moves `counter`, and only it, from 0 to 1.
void expect_hook(const std::string& counter, const std::string& line,
                 const std::function<std::string(const net::ServerProtocol&)>& call) {
  SCOPED_TRACE(counter);
  engine::Engine engine;
  engine::ServiceOptions options;
  options.max_request_bytes = 64;
  engine::SolveService service(engine, options);
  std::map<std::string, std::string> expected = counters(service);
  ASSERT_EQ(expected.count(counter), 1u);
  EXPECT_EQ(call(service.protocol()), line);
  expected[counter] = "1";
  EXPECT_EQ(counters(service), expected);
}

TEST(ServeProtocol, EachRejectHookAnswersItsLineAndMovesOnlyItsCounter) {
  expect_hook("overloaded", "fppn-serve error: overloaded\n",
              [](const net::ServerProtocol& p) { return p.overloaded(); });
  expect_hook("oversized", too_large_line(64),
              [](const net::ServerProtocol& p) { return p.oversized(65); });
  expect_hook("read-errors",
              std::string("fppn-serve error: request read failed: ") +
                  std::strerror(ECONNRESET) + "\n",
              [](const net::ServerProtocol& p) { return p.read_error(ECONNRESET); });
  expect_hook("shed", "fppn-serve error: deadline exceeded\n",
              [](const net::ServerProtocol& p) { return p.deadline_exceeded(); });
}

TEST(ServeProtocol, TimedOutMovesTheCounterOfItsKind) {
  const std::pair<net::Reactor::TimeoutKind, const char*> kinds[] = {
      {net::Reactor::TimeoutKind::kIdle, "idle-timeouts"},
      {net::Reactor::TimeoutKind::kRequest, "request-timeouts"},
      {net::Reactor::TimeoutKind::kWrite, "write-timeouts"},
  };
  for (const auto& [kind, counter] : kinds) {
    expect_hook(counter, "", [kind = kind](const net::ServerProtocol& p) {
      p.timed_out(kind);
      return std::string();
    });
  }
}

}  // namespace
}  // namespace fppn
