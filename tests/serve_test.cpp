// Golden tests for the fppn_serve daemon: request/response wire format,
// the shared in-memory cache answering a repeated fingerprint with zero
// evaluations, error responses for malformed requests, exit-2 flag
// errors, and the SIGINT drain contract (exit 0, socket unlinked).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

const std::string kFig1 =
    std::string(FPPN_TEST_SOURCE_DIR) + "/../examples/fig1.fppn";

/// Fresh per-test scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_serve_test_" + tag + "_" + std::to_string(::getpid())))
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

struct CmdResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs `fppn_serve <args>` (client mode / flag probing) to completion.
CmdResult run_serve(const std::string& args) {
  static int invocation = 0;
  const TempDir dir("run" + std::to_string(++invocation));
  const fs::path out = fs::path(dir.path()) / "out";
  const fs::path err = fs::path(dir.path()) / "err";
  const std::string command = std::string("'") + FPPN_SERVE_BIN + "' " + args +
                              " > '" + out.string() + "' 2> '" + err.string() +
                              "'";
  const int status = std::system(command.c_str());
  CmdResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.out = slurp(out);
  result.err = slurp(err);
  return result;
}

/// Forks the daemon with stderr captured to `log`. Returns its pid.
pid_t start_daemon(const std::string& socket_path, const std::string& log) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (std::freopen(log.c_str(), "w", stderr) == nullptr) {
      std::_Exit(126);
    }
    ::execl(FPPN_SERVE_BIN, FPPN_SERVE_BIN, "--socket", socket_path.c_str(),
            "--workers", "2", static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  return pid;
}

/// Waits (up to ~5 s) for the daemon to bind its socket.
bool wait_for_socket(const std::string& socket_path) {
  for (int i = 0; i < 100; ++i) {
    if (fs::exists(socket_path)) return true;
    ::usleep(50 * 1000);
  }
  return false;
}

/// First line of `text`, without the newline.
std::string status_line(const std::string& text) {
  const std::size_t nl = text.find('\n');
  return text.substr(0, nl == std::string::npos ? text.size() : nl);
}

TEST(ServeDaemon, AnswersCachesAndDrainsOnSigint) {
  const TempDir dir("lifecycle");
  const std::string socket_path = dir.path() + "/serve.sock";
  const std::string log = dir.path() + "/daemon.log";
  const pid_t daemon = start_daemon(socket_path, log);
  ASSERT_GT(daemon, 0);
  ASSERT_TRUE(wait_for_socket(socket_path)) << slurp(log);

  // First request: a cold solve — every candidate evaluated.
  const CmdResult first =
      run_serve("--socket '" + socket_path + "' --request " + kFig1);
  EXPECT_EQ(first.exit_code, 0) << first.err;
  const std::string cold = status_line(first.out);
  EXPECT_EQ(cold.find("fppn-serve ok fingerprint "), 0u) << cold;
  EXPECT_NE(cold.find(" candidates 6 evaluated 6 cached 0 "), std::string::npos)
      << cold;
  EXPECT_NE(cold.find(" winner alap-edf seed 1 feasible 1"), std::string::npos)
      << cold;
  // The response body carries the winning schedule in the cache-entry
  // wire format.
  EXPECT_NE(first.out.find("\nfppn-schedule v1\n"), std::string::npos)
      << first.out;
  EXPECT_NE(first.out.find("\nend\n"), std::string::npos) << first.out;

  // Second, identical request: answered entirely from the daemon's
  // shared in-memory cache — zero candidates evaluated, same winner,
  // same fingerprint, byte-identical status apart from the hit counts.
  const CmdResult second =
      run_serve("--socket '" + socket_path + "' --request " + kFig1);
  EXPECT_EQ(second.exit_code, 0) << second.err;
  const std::string warm = status_line(second.out);
  EXPECT_NE(warm.find(" candidates 6 evaluated 0 cached 6 "), std::string::npos)
      << warm;
  // fingerprint token (index 2) and winner token must match the cold run.
  std::istringstream cold_ss(cold), warm_ss(warm);
  std::string cold_fp, warm_fp;
  for (int i = 0; i < 3; ++i) {
    cold_ss >> cold_fp;
    warm_ss >> warm_fp;
  }
  EXPECT_EQ(cold_fp, warm_fp);

  // A malformed request gets an error response and a client exit 1 —
  // the daemon survives it.
  const std::string bad = dir.path() + "/bad.fppn";
  {
    std::ofstream out(bad);
    out << "garbage\n";
  }
  const CmdResult broken =
      run_serve("--socket '" + socket_path + "' --request '" + bad + "'");
  EXPECT_EQ(broken.exit_code, 1);
  EXPECT_EQ(status_line(broken.out),
            "fppn-serve error: parse error: line 1: unknown statement "
            "'garbage'");

  // ...and still answers from the cache afterwards.
  const CmdResult third =
      run_serve("--socket '" + socket_path + "' --request " + kFig1);
  EXPECT_EQ(third.exit_code, 0);
  EXPECT_NE(status_line(third.out).find(" evaluated 0 cached 6 "),
            std::string::npos)
      << third.out;

  // SIGINT: drain, unlink the socket, exit 0.
  ASSERT_EQ(::kill(daemon, SIGINT), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
  ASSERT_TRUE(WIFEXITED(status)) << slurp(log);
  EXPECT_EQ(WEXITSTATUS(status), 0) << slurp(log);
  EXPECT_FALSE(fs::exists(socket_path));
  const std::string drained = slurp(log);
  EXPECT_NE(drained.find("fppn_serve: drained; cache served "),
            std::string::npos)
      << drained;
}

TEST(ServeDaemon, ClientAgainstAMissingDaemonFails) {
  const TempDir dir("nodaemon");
  const CmdResult r = run_serve("--socket '" + dir.path() +
                                "/absent.sock' --request " + kFig1);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err.find("fppn_serve: "), 0u) << r.err;
}

TEST(ServeDaemon, FlagErrorsExitTwo) {
  const CmdResult missing_socket = run_serve("");
  EXPECT_EQ(missing_socket.exit_code, 2);
  EXPECT_EQ(missing_socket.err, "fppn_serve: --socket PATH is required\n");

  const CmdResult bad_workers = run_serve("--socket /tmp/x --workers banana");
  EXPECT_EQ(bad_workers.exit_code, 2);
  EXPECT_EQ(bad_workers.err,
            "fppn_serve: expected an integer for --workers, got 'banana'\n");

  // Values outside the target type are rejected, not wrapped: 2^32 + 2
  // workers would otherwise run 2, and a 2^32 ms deadline would be 0 (off).
  const CmdResult huge_workers = run_serve("--socket /tmp/x --workers 4294967298");
  EXPECT_EQ(huge_workers.exit_code, 2);
  EXPECT_EQ(huge_workers.err,
            "fppn_serve: --workers must be in [1, 2147483647], got '4294967298'\n");

  const CmdResult huge_idle = run_serve("--socket /tmp/x --idle-timeout-ms 4294967296");
  EXPECT_EQ(huge_idle.exit_code, 2);
  EXPECT_EQ(huge_idle.err,
            "fppn_serve: --idle-timeout-ms must be in [0, 2147483647], got "
            "'4294967296'\n");

  const CmdResult zero_workers = run_serve("--socket /tmp/x --workers 0");
  EXPECT_EQ(zero_workers.exit_code, 2);
  EXPECT_EQ(zero_workers.err,
            "fppn_serve: --workers must be in [1, 2147483647], got '0'\n");

  // --seed spans all of uint64, as in fppn_tool: the largest seed is
  // accepted (the client then fails to connect, exit 1), a sign is not.
  const CmdResult max_seed =
      run_serve("--socket /nonexistent/x.sock --seed 18446744073709551615 --stats");
  EXPECT_EQ(max_seed.exit_code, 1);
  EXPECT_EQ(max_seed.err,
            "fppn_serve: cannot connect to '/nonexistent/x.sock': No such file or "
            "directory\n");

  // --fault-rate counts faults per 1024 calls: 1024 is accepted (the
  // client then fails to connect), 1025 is rejected, not clamped.
  const CmdResult max_rate =
      run_serve("--socket /nonexistent/x.sock --fault-rate 1024 --stats");
  EXPECT_EQ(max_rate.exit_code, 1);
  EXPECT_EQ(max_rate.err,
            "fppn_serve: cannot connect to '/nonexistent/x.sock': No such file or "
            "directory\n");
  const CmdResult over_rate = run_serve("--socket /tmp/x --fault-rate 1025 --stats");
  EXPECT_EQ(over_rate.exit_code, 2);
  EXPECT_EQ(over_rate.err, "fppn_serve: --fault-rate must be in [0, 1024], got '1025'\n");

  const CmdResult negative_seed = run_serve("--socket /tmp/x --seed -1");
  EXPECT_EQ(negative_seed.exit_code, 2);
  EXPECT_EQ(negative_seed.err,
            "fppn_serve: expected an unsigned integer for --seed, got '-1'\n");

  // --fault-seed parses like --seed: 2^63 is accepted, a sign is not.
  const CmdResult big_fault_seed = run_serve(
      "--socket /nonexistent/x.sock --fault-seed 9223372036854775808 --stats");
  EXPECT_EQ(big_fault_seed.exit_code, 1);
  EXPECT_EQ(big_fault_seed.err,
            "fppn_serve: cannot connect to '/nonexistent/x.sock': No such file or "
            "directory\n");

  const CmdResult negative_fault_seed = run_serve("--socket /tmp/x --fault-seed -1");
  EXPECT_EQ(negative_fault_seed.exit_code, 2);
  EXPECT_EQ(negative_fault_seed.err,
            "fppn_serve: expected an unsigned integer for --fault-seed, got '-1'\n");

  // The cache flags' rule, the same in fppn_tool: an empty directory and
  // a bound without a directory are usage errors (0 = unbounded).
  const CmdResult empty_dir = run_serve("--socket /tmp/x --cache-dir ''");
  EXPECT_EQ(empty_dir.exit_code, 2);
  EXPECT_EQ(empty_dir.err, "fppn_serve: --cache-dir must not be empty\n");
  const CmdResult entries_alone = run_serve("--socket /tmp/x --cache-max-entries 0");
  EXPECT_EQ(entries_alone.exit_code, 2);
  EXPECT_EQ(entries_alone.err, "fppn_serve: --cache-max-entries requires --cache-dir\n");
  const CmdResult bytes_alone = run_serve("--socket /tmp/x --cache-max-bytes 4096");
  EXPECT_EQ(bytes_alone.exit_code, 2);
  EXPECT_EQ(bytes_alone.err, "fppn_serve: --cache-max-bytes requires --cache-dir\n");
  const CmdResult negative_bound =
      run_serve("--socket /tmp/x --cache-dir /tmp/c --cache-max-bytes -1");
  EXPECT_EQ(negative_bound.exit_code, 2);
  EXPECT_EQ(negative_bound.err, "fppn_serve: --cache-max-bytes must be >= 0, got '-1'\n");

  const CmdResult unknown = run_serve("--socket /tmp/x --frobnicate");
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_EQ(unknown.err.find("usage: fppn_serve "), 0u) << unknown.err;
}

TEST(ServeDaemon, HelpExitsZero) {
  const CmdResult r = run_serve("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out.find("usage: fppn_serve "), 0u) << r.out;
}

}  // namespace
