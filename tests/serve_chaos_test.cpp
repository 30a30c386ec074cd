// Seeded fault-injection sweep over the in-process serving stack: the
// real net::Server + engine::SolveService + engine::Engine wiring (the
// daemon minus flag parsing) under deterministic chaos — injected
// EINTR/EAGAIN storms, short reads and writes, synthetic ECONNRESETs,
// and failing fsync/rename/unlink in the cache persistence path.
//
// Invariants asserted per seed (FPPN_CHAOS_SEEDS overrides the sweep
// size; CI runs 200 under ASan):
//   - the stack never crashes and every client call returns (deadlines
//     bound every stall the injector can manufacture);
//   - no client ever reads bytes that are not a prefix of a real
//     "fppn-serve ..." response — chaos may truncate, never corrupt or
//     cross-wire;
//   - cache maintenance under injection never throws, and once the
//     injector is disarmed one gc() pass restores the entry bound — an
//     injected unlink/rename failure may delay eviction, never break it;
//   - the drain completes with the injector still armed.
// A final check asserts the sweep leaked no file descriptors. Every
// failure message includes the seed: re-run with that seed for a
// bit-identical injection schedule.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "net/listener.hpp"
#include "net/server.hpp"
#include "sched/schedule_cache.hpp"
#include "testing/fault_injector.hpp"

namespace fppn {
namespace {

namespace fs = std::filesystem;
using fppn::testing::FaultConfig;
using fppn::testing::FaultInjector;

const std::string kFig1 =
    std::string(FPPN_TEST_SOURCE_DIR) + "/../examples/fig1.fppn";

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_serve_chaos_test_" + tag + "_" + std::to_string(::getpid())))
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
    break;
  }
  return data;
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string roundtrip(const std::string& socket_path, const std::string& request) {
  const int fd = fppn::net::connect_endpoint(net::Endpoint::unix_socket(socket_path));
  if (fd < 0) {
    return "";  // accept may be saturated by injected faults: a clean miss
  }
  write_all(fd, request);
  ::shutdown(fd, SHUT_WR);
  const std::string response = read_to_eof(fd);
  ::close(fd);
  return response;
}

/// Sweep size: FPPN_CHAOS_SEEDS when set (CI runs 200), else 25.
int chaos_seeds() {
  if (const char* env = std::getenv("FPPN_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 25;
}

/// Open file descriptors of this process (the leak detector).
std::size_t open_fd_count() {
  std::size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return 0;  // non-procfs platform: the check degrades to a no-op
  }
  while (::readdir(dir) != nullptr) {
    ++count;
  }
  ::closedir(dir);
  return count;
}

/// Any byte sequence a client reads must be a prefix of a response that
/// starts "fppn-serve " — injected resets may truncate, but a single
/// wrong byte means corruption or a cross-wired response.
bool is_clean_prefix(const std::string& response) {
  static const std::string kHeader = "fppn-serve ";
  const std::size_t n = std::min(response.size(), kHeader.size());
  return response.compare(0, n, kHeader, 0, n) == 0;
}

/// Entry files currently in a cache directory.
std::size_t sched_file_count(const std::string& dir) {
  std::size_t count = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".sched") {
      ++count;
    }
  }
  return count;
}

/// One chaos round: a full serving stack on its own socket and cache
/// directory, traffic driven through it with the injector armed at
/// `seed`, then the armed drain and the disarmed cache-bound check.
void run_chaos_round(std::uint64_t seed, const std::string& network) {
  const TempDir dir("seed" + std::to_string(seed));
  const std::string socket_path = dir.path() + "/chaos.sock";
  const std::string cache_dir = dir.path() + "/cache";
  constexpr std::size_t kCacheBound = 4;

  engine::Engine engine;
  engine::ServiceOptions service_options;
  service_options.processors = 2;
  service_options.cache_dir = cache_dir;
  service_options.cache_max_entries = kCacheBound;
  engine::SolveService service(engine, service_options);

  net::ServerOptions server_options;
  server_options.solver_threads = 2;
  server_options.queue_capacity = 4;
  server_options.idle_timeout_ms = 200;
  server_options.request_timeout_ms = 500;
  server_options.write_timeout_ms = 500;
  server_options.queue_deadline_ms = 400;

  net::ServerProtocol protocol;
  protocol.overloaded = [&service] { return service.overloaded_line(); };
  protocol.oversized = [&service](std::size_t bytes) {
    return service.oversized_line(bytes);
  };
  protocol.read_error = [&service](int error) {
    return service.read_error_line(error);
  };
  protocol.deadline_exceeded = [&service] {
    return service.deadline_exceeded_line();
  };
  protocol.timed_out = [&service](net::Reactor::TimeoutKind kind) {
    service.note_timeout(kind == net::Reactor::TimeoutKind::kIdle
                             ? engine::ServeTimeout::kIdle
                             : kind == net::Reactor::TimeoutKind::kRequest
                                   ? engine::ServeTimeout::kRequest
                                   : engine::ServeTimeout::kWrite);
  };

  net::Server server(server_options, protocol,
                     [&service](std::string request, const net::RequestInfo& info) {
                       return service.handle(request, info.queue_wait_ms);
                     });
  server.add_listener(
      net::Listener::listen(net::Endpoint::unix_socket(socket_path)));

  // Arm AFTER the listener exists (binding is setup, not traffic) so the
  // injection schedule covers exactly the serving window.
  FaultInjector::instance().arm(FaultConfig::uniform(seed, /*rate_per_1024=*/96));
  std::thread server_thread([&server] { server.run(); });

  // The traffic mix: two solves (the second warms from the first), the
  // stats verb, a parse error, and an empty request...
  std::vector<std::string> responses;
  responses.push_back(roundtrip(socket_path, network));
  responses.push_back(roundtrip(socket_path, network));
  responses.push_back(roundtrip(socket_path, "stats"));
  responses.push_back(roundtrip(socket_path, "garbage request\n"));
  responses.push_back(roundtrip(socket_path, ""));
  // ...plus an abandoned client: partial request, immediate close, the
  // response never read — the server's answer lands on a dead peer, so
  // this leg drives the write-error path under injection.
  {
    const int fd =
        net::connect_endpoint(net::Endpoint::unix_socket(socket_path));
    if (fd >= 0) {
      write_all(fd, network.substr(0, network.size() / 2));
      ::close(fd);
    }
  }

  // Cache maintenance races the traffic with injection live — the gc
  // contract is that filesystem failures degrade to counted warnings.
  {
    sched::ScheduleCache cache(cache_dir, kCacheBound);
    EXPECT_NO_THROW((void)cache.gc()) << "seed " << seed;
  }

  // Drain with the injector still armed: run() returning IS the assert.
  server.stop();
  server_thread.join();
  FaultInjector::instance().disarm();

  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(is_clean_prefix(responses[i]))
        << "seed " << seed << " request " << i << " read corrupt bytes: '"
        << responses[i].substr(0, 64) << "'";
  }

  // With injection off, one gc() pass must restore the entry bound no
  // matter which unlinks/renames the chaos round left undone.
  sched::ScheduleCache cache(cache_dir, kCacheBound);
  const sched::CacheGcStats pass = cache.gc();
  EXPECT_EQ(pass.evict_failures, 0u) << "seed " << seed;
  EXPECT_LE(sched_file_count(cache_dir), kCacheBound) << "seed " << seed;
}

TEST(ServeChaos, SeededSweepIsCrashFreeAndKeepsTheCacheBounded) {
  std::signal(SIGPIPE, SIG_IGN);
  const std::string network = slurp(kFig1);
  ASSERT_FALSE(network.empty());

  const std::size_t fds_before = open_fd_count();
  const int seeds = chaos_seeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    run_chaos_round(static_cast<std::uint64_t>(seed), network);
    if (::testing::Test::HasFatalFailure()) {
      break;
    }
  }
  FaultInjector::instance().disarm();

  // Every server, listener, connection and cache round is gone: the
  // sweep must not have leaked a single descriptor (small slack for
  // allocator/gtest incidentals).
  const std::size_t fds_after = open_fd_count();
  EXPECT_LE(fds_after, fds_before + 4)
      << "fd leak across the sweep: " << fds_before << " -> " << fds_after;
}

}  // namespace
}  // namespace fppn
