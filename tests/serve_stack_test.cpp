// Daemon-level tests for the restructured serving stack: the real
// fppn_serve binary (reactor + bounded queue + solver pool) driven by
// in-process socket clients — 32-way concurrent load with the warm-cache
// `evaluated 0` contract, the stats verb's golden counters, the
// --max-request-bytes reject, the TCP listener (ephemeral port reported
// on stderr), and the hard-read-error regression (a client aborting
// mid-send with a TCP RST must surface as an error response path, never
// as a solve of the truncated bytes).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/listener.hpp"

namespace {

namespace fs = std::filesystem;
using fppn::net::Endpoint;

const std::string kFig1 =
    std::string(FPPN_TEST_SOURCE_DIR) + "/../examples/fig1.fppn";

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_serve_stack_test_" + tag + "_" + std::to_string(::getpid())))
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

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One request/response exchange against the daemon.
std::string roundtrip(const Endpoint& endpoint, const std::string& request) {
  return fppn::net::exchange(endpoint, request).value_or("<connect failed>");
}

/// Forks the daemon with the given extra flags, stderr captured to `log`.
pid_t start_daemon(const std::vector<std::string>& args, const std::string& log) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (std::freopen(log.c_str(), "w", stderr) == nullptr) {
      std::_Exit(126);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(FPPN_SERVE_BIN));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(FPPN_SERVE_BIN, argv.data());
    std::_Exit(127);
  }
  return pid;
}

bool wait_for_socket(const std::string& socket_path) {
  for (int i = 0; i < 100; ++i) {
    if (fs::exists(socket_path)) return true;
    ::usleep(50 * 1000);
  }
  return false;
}

/// Waits (up to ~5 s) for `needle` to appear in the daemon log.
bool wait_for_log(const std::string& log, const std::string& needle) {
  for (int i = 0; i < 100; ++i) {
    if (slurp(log).find(needle) != std::string::npos) return true;
    ::usleep(50 * 1000);
  }
  return false;
}

/// The ephemeral TCP port from the daemon's "listening on tcp" line.
std::uint16_t tcp_port_from_log(const std::string& log) {
  const std::string text = slurp(log);
  const std::string marker = "listening on tcp 127.0.0.1:";
  const std::size_t at = text.find(marker);
  if (at == std::string::npos) {
    return 0;
  }
  return static_cast<std::uint16_t>(
      std::strtoul(text.c_str() + at + marker.size(), nullptr, 10));
}

/// SIGINT + waitpid; returns the daemon exit code (-1 = abnormal).
int stop_daemon(pid_t pid) {
  if (::kill(pid, SIGINT) != 0) {
    return -1;
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
}

std::string status_line(const std::string& text) {
  const std::size_t nl = text.find('\n');
  return text.substr(0, nl == std::string::npos ? text.size() : nl);
}

/// Token `index` (0-based, whitespace-split) of the status line.
std::string token(const std::string& line, int index) {
  std::istringstream ss(line);
  std::string t;
  for (int i = 0; i <= index; ++i) {
    if (!(ss >> t)) return "";
  }
  return t;
}

TEST(ServeStack, ThirtyTwoConcurrentClientsThenEveryRepeatIsCached) {
  const TempDir dir("stress");
  const std::string socket_path = dir.path() + "/serve.sock";
  const std::string log = dir.path() + "/daemon.log";
  const pid_t daemon = start_daemon(
      {"--socket", socket_path, "--workers", "4", "--queue-capacity", "64"}, log);
  ASSERT_GT(daemon, 0);
  ASSERT_TRUE(wait_for_socket(socket_path)) << slurp(log);
  const std::string request = slurp(kFig1);
  ASSERT_FALSE(request.empty());
  const Endpoint endpoint = Endpoint::unix_socket(socket_path);

  // Round 1: 32 clients at once. Every response must parse as a complete
  // ok response with the same fingerprint — concurrency never tears or
  // cross-wires a response.
  constexpr int kClients = 32;
  std::vector<std::string> responses(kClients);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        responses[static_cast<std::size_t>(i)] = roundtrip(endpoint, request);
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  const std::string fingerprint = token(status_line(responses[0]), 3);
  ASSERT_EQ(fingerprint.size(), 16u) << responses[0];
  for (int i = 0; i < kClients; ++i) {
    const std::string& r = responses[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.find("fppn-serve ok fingerprint "), 0u) << r;
    EXPECT_EQ(token(status_line(r), 3), fingerprint) << r;
    EXPECT_NE(r.find("\nfppn-schedule v1\n"), std::string::npos) << r;
    EXPECT_NE(r.find("\nend\n"), std::string::npos) << r;
  }

  // Round 2: the same 32 requests again, concurrently. The fingerprint is
  // warm in the daemon's shared cache now, so *every* repeat must report
  // `evaluated 0` — answered entirely from cache, bit-identical winner.
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        responses[static_cast<std::size_t>(i)] = roundtrip(endpoint, request);
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  for (int i = 0; i < kClients; ++i) {
    const std::string& r = responses[static_cast<std::size_t>(i)];
    EXPECT_NE(status_line(r).find(" evaluated 0 "), std::string::npos) << r;
    EXPECT_EQ(token(status_line(r), 3), fingerprint) << r;
  }

  EXPECT_EQ(stop_daemon(daemon), 0) << slurp(log);
}

TEST(ServeStack, StatsVerbReportsGoldenCounters) {
  const TempDir dir("stats");
  const std::string socket_path = dir.path() + "/serve.sock";
  const std::string log = dir.path() + "/daemon.log";
  const pid_t daemon = start_daemon({"--socket", socket_path}, log);
  ASSERT_GT(daemon, 0);
  ASSERT_TRUE(wait_for_socket(socket_path)) << slurp(log);
  const Endpoint endpoint = Endpoint::unix_socket(socket_path);
  const std::string request = slurp(kFig1);

  // Two ok solves (one cold, one cached) and one parse error.
  EXPECT_EQ(roundtrip(endpoint, request).find("fppn-serve ok"), 0u);
  EXPECT_EQ(roundtrip(endpoint, request).find("fppn-serve ok"), 0u);
  EXPECT_EQ(roundtrip(endpoint, "garbage\n").find("fppn-serve error: parse error"),
            0u);

  // The stats verb aggregates exactly those: 3 requests, 2 ok, 1 error,
  // no transport rejects — and the verb itself is never counted.
  const std::string stats = roundtrip(endpoint, "stats");
  EXPECT_EQ(stats.find("fppn-serve stats requests 3 ok 2 errors 1 overloaded 0 "
                       "read-errors 0 oversized 0 "),
            0u)
      << stats;
  EXPECT_NE(stats.find(" cache-hits "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" hit-rate "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" p50-ms "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" p99-ms "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" uptime-ms "), std::string::npos) << stats;

  // The --stats client flag is the scriptable form: exit 0 on a stats
  // response, the line on stdout.
  const std::string out_file = dir.path() + "/stats.out";
  const std::string command = std::string("'") + FPPN_SERVE_BIN + "' --socket '" +
                              socket_path + "' --stats > '" + out_file + "'";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(slurp(out_file).find("fppn-serve stats requests 3 "), 0u)
      << slurp(out_file);

  EXPECT_EQ(stop_daemon(daemon), 0) << slurp(log);
}

TEST(ServeStack, OversizedRequestIsRejectedAndTheDaemonSurvives) {
  const TempDir dir("oversize");
  const std::string socket_path = dir.path() + "/serve.sock";
  const std::string log = dir.path() + "/daemon.log";
  const pid_t daemon =
      start_daemon({"--socket", socket_path, "--max-request-bytes", "64"}, log);
  ASSERT_GT(daemon, 0);
  ASSERT_TRUE(wait_for_socket(socket_path)) << slurp(log);
  const Endpoint endpoint = Endpoint::unix_socket(socket_path);

  const std::string request = slurp(kFig1);  // fig1 is far beyond 64 bytes
  ASSERT_GT(request.size(), 64u);
  EXPECT_EQ(roundtrip(endpoint, request),
            "fppn-serve error: request too large: exceeds --max-request-bytes "
            "64\n");

  // The reject is per connection: the daemon still answers, and the
  // stats verb counts the reject without counting it as a request.
  const std::string stats = roundtrip(endpoint, "stats");
  EXPECT_EQ(stats.find("fppn-serve stats requests 0 ok 0 errors 0 "), 0u) << stats;
  EXPECT_NE(stats.find(" oversized 1 "), std::string::npos) << stats;

  EXPECT_EQ(stop_daemon(daemon), 0) << slurp(log);
}

TEST(ServeStack, TcpListenerServesOnAnEphemeralPort) {
  const TempDir dir("tcp");
  const std::string log = dir.path() + "/daemon.log";
  // Port 0: the daemon binds an ephemeral port and reports the real one
  // on stderr — no reserved ports in tests or CI.
  const pid_t daemon = start_daemon({"--listen", "127.0.0.1:0"}, log);
  ASSERT_GT(daemon, 0);
  ASSERT_TRUE(wait_for_log(log, "listening on tcp 127.0.0.1:")) << slurp(log);
  const std::uint16_t port = tcp_port_from_log(log);
  ASSERT_NE(port, 0) << slurp(log);

  const std::string request = slurp(kFig1);
  const std::string response = roundtrip(Endpoint::tcp("127.0.0.1", port), request);
  EXPECT_EQ(response.find("fppn-serve ok fingerprint "), 0u) << response;
  EXPECT_NE(response.find("\nend\n"), std::string::npos) << response;

  // The one-shot client speaks TCP through the same --listen flag.
  const std::string out_file = dir.path() + "/client.out";
  const std::string command = std::string("'") + FPPN_SERVE_BIN +
                              "' --listen 127.0.0.1:" + std::to_string(port) +
                              " --request '" + kFig1 + "' > '" + out_file + "'";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(slurp(out_file).find(" evaluated 0 "), std::string::npos)
      << slurp(out_file);  // warm: same fingerprint as the first request

  EXPECT_EQ(stop_daemon(daemon), 0) << slurp(log);
}

TEST(ServeStack, TornTcpRequestSurfacesAsAReadErrorNotASolve) {
  // Regression: the PR 8 daemon treated a hard read() failure like EOF
  // and solved the truncated request. A mid-send RST must land in the
  // read-error counter with zero solve attempts.
  const TempDir dir("torn");
  const std::string socket_path = dir.path() + "/serve.sock";
  const std::string log = dir.path() + "/daemon.log";
  const pid_t daemon =
      start_daemon({"--socket", socket_path, "--listen", "127.0.0.1:0"}, log);
  ASSERT_GT(daemon, 0);
  ASSERT_TRUE(wait_for_socket(socket_path)) << slurp(log);
  ASSERT_TRUE(wait_for_log(log, "listening on tcp 127.0.0.1:")) << slurp(log);
  const std::uint16_t port = tcp_port_from_log(log);
  ASSERT_NE(port, 0) << slurp(log);

  const int fd = fppn::net::connect_endpoint(Endpoint::tcp("127.0.0.1", port));
  ASSERT_GE(fd, 0) << std::strerror(errno);
  fppn::net::write_all(fd, "process a period 10\n");  // a prefix of a valid network
  struct linger hard_close;
  hard_close.l_onoff = 1;
  hard_close.l_linger = 0;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close,
                         sizeof(hard_close)),
            0);
  ::close(fd);  // RST: the daemon's read() fails hard mid-request

  // The reactor notices asynchronously; poll the stats verb until the
  // read error lands (bounded wait).
  std::string stats;
  for (int i = 0; i < 100; ++i) {
    stats = roundtrip(Endpoint::unix_socket(socket_path), "stats");
    if (stats.find(" read-errors 1 ") != std::string::npos) break;
    ::usleep(50 * 1000);
  }
  EXPECT_NE(stats.find(" read-errors 1 "), std::string::npos) << stats;
  // The truncated text was never solved: zero requests, zero errors.
  EXPECT_EQ(stats.find("fppn-serve stats requests 0 ok 0 errors 0 "), 0u) << stats;

  EXPECT_EQ(stop_daemon(daemon), 0) << slurp(log);
}

}  // namespace
