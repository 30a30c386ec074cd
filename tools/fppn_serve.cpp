// fppn_serve — the scheduling daemon, assembled from the serving stack's
// three layers and nothing else: net::Server (reactor + bounded work
// queue + solver pool) owns the sockets, engine::SolveService owns every
// byte of the wire grammar and the per-request accounting, and
// engine::Engine solves. This file is flag parsing and wiring.
//
// Protocol (one connection per request, text both ways):
//   request:  the bytes of a `.fppn` network description — exactly the
//             existing file format — terminated by the client shutting
//             down its write side (EOF framing, no length prefix); or
//             the single verb "stats".
//   response: one status line
//               "fppn-serve ok fingerprint <16-hex> candidates <N> "
//               "evaluated <N> cached <N> winner <strategy> seed <S> "
//               "feasible <0|1>"
//             followed by the winning schedule in the existing
//             "fppn-schedule v1" entry format (io/schedule_format.hpp,
//             terminated by its "end" line); or one
//               "fppn-serve stats ..." line for the stats verb; or a
//               "fppn-serve error: <message>"
//             line when the request could not be served (parse/solve
//             failure, queue full, request over --max-request-bytes, or
//             a torn read). The connection is closed after the response.
//
// The daemon listens on a Unix socket (--socket), a TCP endpoint
// (--listen HOST:PORT, port 0 = ephemeral), or both at once. One reactor
// thread runs every connection's read/write state machine; --workers
// (alias --solver-threads) solver threads pop complete requests off a
// bounded queue (--queue-capacity) and solve through ONE engine::Engine,
// so a repeat request for an already-solved fingerprint reports
// `evaluated 0` — the daemon's L1 (the shared in-memory ScheduleCache,
// or a disk cache when --cache-dir is given, which every store and disk
// hit evicts down to --cache-max-entries / --cache-max-bytes). A full
// queue is answered immediately with "fppn-serve error: overloaded" —
// backpressure is explicit, never an unbounded backlog.
//
// Deadlines (all off by default, 0 = disabled): --idle-timeout-ms closes
// connections that send no first byte, --request-timeout-ms bounds first
// byte to EOF (a slow-loris drip never extends it), --write-timeout-ms
// drops peers that stop draining their response, and
// --queue-deadline-ms sheds requests whose queue wait already exceeds
// the deadline ("fppn-serve error: deadline exceeded" — the solve is
// skipped entirely).
//
// --fault-seed/--fault-rate arm the deterministic fault injector
// (src/testing/fault_injector.hpp) for chaos testing: accept/read/
// write/poll and the cache persistence path see seeded EINTR/EAGAIN/
// short-transfer/ECONNRESET faults. Testing-only; the seed is printed
// so a failing run replays bit-identically.
//
// Shutdown: SIGINT/SIGTERM begin the drain — listeners close (the Unix
// socket file is unlinked), queued requests finish, every response is
// written — then the process exits 0.
//
// `--request FILE` flips the binary into a one-shot client: connect,
// send FILE, print the response to stdout, exit 0 on an "ok" response —
// the client half of the CI smoke and the golden serve tests. `--stats`
// is the same for the stats verb (exit 0 on a "fppn-serve stats" line).
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "net/listener.hpp"
#include "net/server.hpp"
#include "testing/fault_injector.hpp"

using namespace fppn;

namespace {

int g_stop_pipe[2] = {-1, -1};  ///< self-pipe: the handler wakes the reactor

void handle_stop_signal(int) {
  // One async-signal-safe write makes the pipe's read end readable; the
  // reactor polls it and never drains it.
  if (g_stop_pipe[1] >= 0) {
    const char byte = 1;
    (void)!::write(g_stop_pipe[1], &byte, 1);
  }
}

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: fppn_serve --socket PATH | --listen HOST:PORT [options]\n"
      "       fppn_serve --socket PATH --request FILE   # one-shot client\n"
      "       fppn_serve --socket PATH --stats          # one-shot stats query\n"
      "options:\n"
      "  --socket PATH          Unix socket to listen on (created; unlinked on exit)\n"
      "  --listen HOST:PORT     TCP endpoint to listen on (port 0 = ephemeral;\n"
      "                         the bound port is reported on stderr)\n"
      "  --workers N            solver threads (default 2)\n"
      "  --solver-threads N     alias for --workers\n"
      "  --queue-capacity N     bounded work queue depth; a full queue answers\n"
      "                         'fppn-serve error: overloaded' (default 64)\n"
      "  --max-request-bytes N  reject requests larger than N bytes\n"
      "                         (default 8388608; 0 = unlimited)\n"
      "  -m N                   processor count to solve for (default 2)\n"
      "  --seed S               search base seed (default 1)\n"
      "  --jobs W               per-solve search worker threads (0 = auto)\n"
      "  --optimize             the optimizing search preset per request\n"
      "  --verbose              per-request summary lines on stderr\n"
      "  --cache-dir D          disk schedule cache instead of the in-memory L1\n"
      "  --cache-max-entries N  disk cache entry bound (0 = unbounded)\n"
      "  --cache-max-bytes N    disk cache byte bound (0 = unbounded)\n"
      "  --idle-timeout-ms N    close connections idle before their first byte\n"
      "                         (default 0 = no deadline)\n"
      "  --request-timeout-ms N close connections whose request is not complete\n"
      "                         N ms after its first byte (default 0)\n"
      "  --write-timeout-ms N   close connections that stop reading their\n"
      "                         response for N ms (default 0)\n"
      "  --queue-deadline-ms N  shed requests that waited longer than N ms in\n"
      "                         the queue: 'fppn-serve error: deadline exceeded'\n"
      "                         (default 0 = never shed)\n"
      "  --fault-seed S         fault-injection seed (testing; with --fault-rate)\n"
      "  --fault-rate R         inject R faults per 1024 syscalls (testing;\n"
      "                         default 0 = injector disarmed)\n"
      "  --request FILE         client mode: send FILE, print the response\n"
      "  --stats                client mode: query the stats verb\n");
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(2);
}

constexpr std::int64_t kNoMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// Checked integer parse, fppn_serve's analogue of the fppn_tool helper:
/// values that are not integers or fall outside [min_value, max_value]
/// exit 2 with an actionable message naming the flag.
std::int64_t parse_int_flag(const char* flag, const std::string& value,
                            std::int64_t min_value, std::int64_t max_value = kNoMax) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    std::fprintf(stderr, "fppn_serve: expected an integer for %s, got '%s'\n", flag,
                 value.c_str());
    std::exit(2);
  }
  if (errno == ERANGE || parsed < min_value || parsed > max_value) {
    if (max_value == kNoMax) {
      std::fprintf(stderr, "fppn_serve: %s must be >= %lld, got '%s'\n", flag,
                   static_cast<long long>(min_value), value.c_str());
    } else {
      std::fprintf(stderr, "fppn_serve: %s must be in [%lld, %lld], got '%s'\n", flag,
                   static_cast<long long>(min_value),
                   static_cast<long long>(max_value), value.c_str());
    }
    std::exit(2);
  }
  return parsed;
}

struct ServeArgs {
  std::string socket_path;
  std::string listen_text;                       ///< raw --listen value
  std::optional<net::Endpoint> listen_endpoint;  ///< parsed --listen
  std::string request_file;                      ///< non-empty = client mode
  bool stats_request = false;                    ///< client mode: stats verb
  int solver_threads = 2;
  std::size_t queue_capacity = 64;
  std::size_t max_request_bytes = 8u << 20;  ///< 8 MiB default
  std::int64_t processors = 2;
  std::uint64_t seed = 1;
  int jobs = 0;
  bool optimize = false;
  bool verbose = false;
  std::string cache_dir;
  std::size_t cache_max_entries = 0;
  std::uint64_t cache_max_bytes = 0;
  int idle_timeout_ms = 0;
  int request_timeout_ms = 0;
  int write_timeout_ms = 0;
  int queue_deadline_ms = 0;
  std::uint64_t fault_seed = 1;
  int fault_rate = 0;  ///< faults per 1024 intercepted calls; 0 = disarmed

  [[nodiscard]] bool client_mode() const {
    return !request_file.empty() || stats_request;
  }
};

ServeArgs parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout);
      std::exit(0);
    }
  }
  ServeArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      a.socket_path = next();
    } else if (arg == "--listen") {
      a.listen_text = next();
      try {
        a.listen_endpoint = net::Endpoint::parse_tcp(a.listen_text);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "fppn_serve: bad --listen value: %s\n", e.what());
        std::exit(2);
      }
    } else if (arg == "--request") {
      a.request_file = next();
    } else if (arg == "--stats") {
      a.stats_request = true;
    } else if (arg == "--workers") {
      a.solver_threads =
          static_cast<int>(parse_int_flag("--workers", next(), 1, kIntMax));
    } else if (arg == "--solver-threads") {
      a.solver_threads =
          static_cast<int>(parse_int_flag("--solver-threads", next(), 1, kIntMax));
    } else if (arg == "--queue-capacity") {
      a.queue_capacity =
          static_cast<std::size_t>(parse_int_flag("--queue-capacity", next(), 1));
    } else if (arg == "--max-request-bytes") {
      a.max_request_bytes =
          static_cast<std::size_t>(parse_int_flag("--max-request-bytes", next(), 0));
    } else if (arg == "-m") {
      a.processors = parse_int_flag("-m", next(), 1);
    } else if (arg == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_int_flag("--seed", next(), 0));
    } else if (arg == "--jobs") {
      a.jobs = static_cast<int>(parse_int_flag("--jobs", next(), 0, kIntMax));
    } else if (arg == "--optimize") {
      a.optimize = true;
    } else if (arg == "--verbose") {
      a.verbose = true;
    } else if (arg == "--cache-dir") {
      a.cache_dir = next();
    } else if (arg == "--cache-max-entries") {
      a.cache_max_entries =
          static_cast<std::size_t>(parse_int_flag("--cache-max-entries", next(), 0));
    } else if (arg == "--cache-max-bytes") {
      a.cache_max_bytes =
          static_cast<std::uint64_t>(parse_int_flag("--cache-max-bytes", next(), 0));
    } else if (arg == "--idle-timeout-ms") {
      a.idle_timeout_ms =
          static_cast<int>(parse_int_flag("--idle-timeout-ms", next(), 0, kIntMax));
    } else if (arg == "--request-timeout-ms") {
      a.request_timeout_ms =
          static_cast<int>(parse_int_flag("--request-timeout-ms", next(), 0, kIntMax));
    } else if (arg == "--write-timeout-ms") {
      a.write_timeout_ms =
          static_cast<int>(parse_int_flag("--write-timeout-ms", next(), 0, kIntMax));
    } else if (arg == "--queue-deadline-ms") {
      a.queue_deadline_ms =
          static_cast<int>(parse_int_flag("--queue-deadline-ms", next(), 0, kIntMax));
    } else if (arg == "--fault-seed") {
      a.fault_seed = static_cast<std::uint64_t>(parse_int_flag("--fault-seed", next(), 0));
    } else if (arg == "--fault-rate") {
      a.fault_rate = static_cast<int>(parse_int_flag("--fault-rate", next(), 0, kIntMax));
      if (a.fault_rate > 1024) {
        a.fault_rate = 1024;
      }
    } else {
      usage();
    }
  }
  if (a.socket_path.empty() && !a.listen_endpoint.has_value()) {
    std::fprintf(stderr, "fppn_serve: --socket PATH is required\n");
    std::exit(2);
  }
  return a;
}

/// Reads the peer's bytes until EOF (client mode; blocking fd).
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
      return;  // peer gone (SIGPIPE is ignored); nothing useful to do
    }
    off += static_cast<std::size_t>(n);
  }
}

int run_server(const ServeArgs& args) {
  std::signal(SIGPIPE, SIG_IGN);
  if (args.fault_rate > 0) {
    testing::FaultInjector::instance().arm(
        testing::FaultConfig::uniform(args.fault_seed,
                                      static_cast<std::uint16_t>(args.fault_rate)));
    // The seed is the whole replay recipe: print it up front so a chaos
    // failure can be reproduced bit-identically.
    std::fprintf(stderr, "fppn_serve: fault injection armed (seed %llu, rate %d/1024)\n",
                 static_cast<unsigned long long>(args.fault_seed), args.fault_rate);
  }
  if (::pipe(g_stop_pipe) < 0) {
    std::fprintf(stderr, "fppn_serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }

  // Bind every endpoint before installing signal handlers or spawning
  // anything: a bad endpoint is a clean exit 1, and the Unix socket file
  // existing is how scripts detect readiness.
  std::vector<net::Listener> listeners;
  try {
    if (!args.socket_path.empty()) {
      listeners.push_back(
          net::Listener::listen(net::Endpoint::unix_socket(args.socket_path)));
    }
    if (args.listen_endpoint.has_value()) {
      listeners.push_back(net::Listener::listen(*args.listen_endpoint));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fppn_serve: %s\n", e.what());
    return 1;
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  for (const net::Listener& listener : listeners) {
    const net::Endpoint& ep = listener.endpoint();
    if (ep.kind == net::Endpoint::Kind::kUnix) {
      std::fprintf(stderr, "fppn_serve: listening on '%s' (%d worker(s), m=%lld)\n",
                   ep.path.c_str(), args.solver_threads,
                   static_cast<long long>(args.processors));
    } else {
      // The bound port (ephemeral binds resolve to a real one) — tests
      // and scripts parse it from this line.
      std::fprintf(stderr,
                   "fppn_serve: listening on tcp %s:%u (%d worker(s), m=%lld)\n",
                   ep.host.c_str(), static_cast<unsigned>(ep.port),
                   args.solver_threads, static_cast<long long>(args.processors));
    }
  }

  engine::Engine engine;
  engine::ServiceOptions service_options;
  service_options.processors = args.processors;
  service_options.seed = args.seed;
  service_options.search_workers = args.jobs;
  service_options.optimize = args.optimize;
  service_options.verbose = args.verbose;
  if (!args.cache_dir.empty()) {
    service_options.cache_dir = args.cache_dir;
    service_options.cache_max_entries = args.cache_max_entries;
    service_options.cache_max_bytes = args.cache_max_bytes;
  }
  service_options.max_request_bytes = args.max_request_bytes;
  engine::SolveService service(engine, service_options);

  net::ServerOptions server_options;
  server_options.solver_threads = args.solver_threads;
  server_options.queue_capacity = args.queue_capacity;
  server_options.max_request_bytes = args.max_request_bytes;
  server_options.stop_fd = g_stop_pipe[0];
  server_options.idle_timeout_ms = args.idle_timeout_ms;
  server_options.request_timeout_ms = args.request_timeout_ms;
  server_options.write_timeout_ms = args.write_timeout_ms;
  server_options.queue_deadline_ms = args.queue_deadline_ms;

  net::ServerProtocol protocol;
  protocol.overloaded = [&service] { return service.overloaded_line(); };
  protocol.oversized = [&service](std::size_t bytes) {
    return service.oversized_line(bytes);
  };
  protocol.read_error = [&service](int error) {
    return service.read_error_line(error);
  };
  protocol.deadline_exceeded = [&service] { return service.deadline_exceeded_line(); };
  protocol.timed_out = [&service](net::Reactor::TimeoutKind kind) {
    // net stays ignorant of the engine: the mapping between the mirror
    // enums lives here in the wiring.
    switch (kind) {
      case net::Reactor::TimeoutKind::kIdle:
        service.note_timeout(engine::ServeTimeout::kIdle);
        break;
      case net::Reactor::TimeoutKind::kRequest:
        service.note_timeout(engine::ServeTimeout::kRequest);
        break;
      case net::Reactor::TimeoutKind::kWrite:
        service.note_timeout(engine::ServeTimeout::kWrite);
        break;
    }
  };

  net::Server server(server_options, protocol,
                     [&service](std::string request, const net::RequestInfo& info) {
                       return service.handle(request, info.queue_wait_ms);
                     });
  for (net::Listener& listener : listeners) {
    server.add_listener(std::move(listener));
  }
  listeners.clear();

  server.run();  // returns drained: every accepted request answered

  const engine::ServiceStats stats = service.stats();
  std::fprintf(stderr, "fppn_serve: drained; cache served %zu hit(s), %zu miss(es)\n",
               static_cast<std::size_t>(stats.cache_hits),
               static_cast<std::size_t>(stats.cache_misses));
  return 0;
}

/// Client mode: send the request (a file's bytes, or the stats verb),
/// stream the response to stdout. Exit 0 on the expected response kind
/// ("fppn-serve ok" / "fppn-serve stats"), 1 otherwise — so scripts can
/// assert success without parsing.
int run_client(const ServeArgs& args) {
  std::string request_text;
  if (args.stats_request) {
    request_text = "stats\n";
  } else {
    std::ifstream in(args.request_file);
    if (!in) {
      std::fprintf(stderr, "fppn_serve: cannot open '%s'\n", args.request_file.c_str());
      return 1;
    }
    std::ostringstream request;
    request << in.rdbuf();
    request_text = request.str();
  }

  // A Unix socket path wins when both endpoints are given.
  const bool use_unix = !args.socket_path.empty();
  const net::Endpoint endpoint = use_unix
                                     ? net::Endpoint::unix_socket(args.socket_path)
                                     : *args.listen_endpoint;
  const std::string& target = use_unix ? args.socket_path : args.listen_text;
  const int fd = net::connect_endpoint(endpoint);
  if (fd < 0) {
    std::fprintf(stderr, "fppn_serve: cannot connect to '%s': %s\n", target.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);
  write_all(fd, request_text);
  ::shutdown(fd, SHUT_WR);  // EOF-frames the request
  const std::string response = read_to_eof(fd);
  ::close(fd);
  std::fputs(response.c_str(), stdout);
  const char* expected = args.stats_request ? "fppn-serve stats" : "fppn-serve ok";
  return response.rfind(expected, 0) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const ServeArgs args = parse_args(argc, argv);
  return args.client_mode() ? run_client(args) : run_server(args);
}
