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
// The process does not ignore SIGPIPE, so a response written to a peer
// that is gone must not raise it.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

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

/// Sends `data` in writes of at most `chunk` bytes. MSG_NOSIGNAL: a
/// server that already closed the connection must not kill the client.
bool send_all(int fd, const std::string& data, std::size_t chunk) {
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t len = std::min(chunk, data.size() - off);
    const ssize_t n = ::send(fd, data.data() + off, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_to_eof(int fd) {
  std::string data;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      data.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return data;
  }
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
        server_(server_options(max_request_bytes), protocol(), handler()) {
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

  /// Connect, send `request` in `chunk`-byte writes, half-close, read the
  /// response to EOF.
  [[nodiscard]] std::string exchange(const std::string& request,
                                     std::size_t chunk = 1 << 16) const {
    const int fd = net::connect_endpoint(unix_);
    if (fd < 0) {
      return "<connect failed: " + std::string(std::strerror(errno)) + ">";
    }
    send_all(fd, request, chunk);
    ::shutdown(fd, SHUT_WR);
    std::string response = read_to_eof(fd);
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

  net::ServerProtocol protocol() {
    net::ServerProtocol p;
    p.overloaded = [this] { return service_.overloaded_line(); };
    p.oversized = [this](std::size_t bytes) { return service_.oversized_line(bytes); };
    p.read_error = [this](int error) { return service_.read_error_line(error); };
    p.deadline_exceeded = [this] { return service_.deadline_exceeded_line(); };
    return p;
  }

  net::Server::Handler handler() {
    return [this](std::string request, const net::RequestInfo& info) {
      return service_.handle(request, info.queue_wait_ms);
    };
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
  EXPECT_EQ(stack.exchange(fig1, 1), whole);
  EXPECT_EQ(stack.exchange(fig1 + "\n", 1), too_large_line(fig1.size()));

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
    ASSERT_TRUE(send_all(fd, cut, 1));
    ::close(fd);
  }
  // RST mid-request on TCP: a read error, never solved.
  {
    const int fd = net::connect_endpoint(stack.tcp_endpoint());
    ASSERT_GE(fd, 0) << std::strerror(errno);
    ASSERT_TRUE(send_all(fd, cut, 1));
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
    ASSERT_TRUE(send_all(fd, fig1 + fig1.substr(0, 10), 1));
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

  const std::string cut = stack.exchange(truncated_fig1(fig1), 1);
  EXPECT_EQ(cut.rfind("fppn-serve error: parse error: ", 0), 0u) << cut;
  const std::string empty = stack.exchange("");
  EXPECT_EQ(empty.rfind("fppn-serve error: ", 0), 0u) << empty;

  stack.expect_stats({{"requests", "2"}, {"errors", "2"}, {"overloaded", "0"}});
  stack.expect_healthy(fig1);
}

}  // namespace
}  // namespace fppn
