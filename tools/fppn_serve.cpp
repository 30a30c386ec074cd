// fppn_serve — the scheduling daemon, assembled from the serving stack's
// three layers and nothing else: net::Server (reactor + bounded work
// queue + solver pool) owns the sockets, engine::SolveService owns every
// byte of the wire grammar and the per-request accounting, and
// engine::Engine solves. This file is flag parsing plus
// `net::Server(options, service.protocol(), service.handler())`: the
// hook wiring lives in SolveService, the EOF-framing client in net.
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
// `--request FILE` flips the binary into a one-shot client: send FILE
// through net::exchange, print the response to stdout, exit 0 on an "ok"
// response — the client half of the CI smoke and the golden serve tests.
// `--stats` is the same for the stats verb (exit 0 on a "fppn-serve
// stats" line).
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
#include "flag_parse.hpp"
#include "net/listener.hpp"
#include "net/server.hpp"
#include "testing/fault_injector.hpp"

using namespace fppn;
using tool::kIntMax;

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
      "                         (must not be empty)\n"
      "  --cache-max-entries N  disk cache entry bound (0 = unbounded;\n"
      "                         requires --cache-dir)\n"
      "  --cache-max-bytes N    disk cache byte bound (0 = unbounded;\n"
      "                         requires --cache-dir)\n"
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
      "  --fault-rate R         inject R faults per 1024 syscalls, R in [0, 1024]\n"
      "                         (testing; default 0 = injector disarmed)\n"
      "  --request FILE         client mode: send FILE, print the response\n"
      "  --stats                client mode: query the stats verb\n");
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(2);
}

constexpr char kProgram[] = "fppn_serve";

struct ServeArgs {
  std::string socket_path;
  std::string listen_text;                       ///< raw --listen value
  std::optional<net::Endpoint> listen_endpoint;  ///< parsed --listen
  std::string request_file;                      ///< non-empty = client mode
  bool stats_request = false;                    ///< client mode: stats verb
  engine::ServiceOptions service;
  net::ServerOptions server;
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
  a.server.max_request_bytes = 8u << 20;  // 8 MiB default
  const char* cache_bound_flag = nullptr;  // the last cache bound given
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
      }
      return argv[++i];
    };
    // The next argument as a checked value of flag `arg`: exit 2 if bad.
    const auto int_value =
        [&](std::int64_t min_value,
            std::int64_t max_value = std::numeric_limits<std::int64_t>::max()) {
          return tool::parse_int_flag(kProgram, arg.c_str(), next(), min_value, max_value);
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
    } else if (arg == "--workers" || arg == "--solver-threads") {
      a.server.solver_threads = static_cast<int>(int_value(1, kIntMax));
    } else if (arg == "--queue-capacity") {
      a.server.queue_capacity = static_cast<std::size_t>(int_value(1));
    } else if (arg == "--max-request-bytes") {
      a.server.max_request_bytes = static_cast<std::size_t>(int_value(0));
    } else if (arg == "-m") {
      a.service.processors = int_value(1);
    } else if (arg == "--seed") {
      a.service.seed = tool::parse_u64_flag(kProgram, "--seed", next());
    } else if (arg == "--jobs") {
      a.service.search_workers = static_cast<int>(int_value(0, kIntMax));
    } else if (arg == "--optimize") {
      a.service.optimize = true;
    } else if (arg == "--verbose") {
      a.service.verbose = true;
    } else if (arg == "--cache-dir") {
      a.service.cache_dir = tool::parse_cache_dir_flag(kProgram, next());
    } else if (arg == "--cache-max-entries") {
      a.service.cache_max_entries = static_cast<std::size_t>(int_value(0));
      cache_bound_flag = "--cache-max-entries";
    } else if (arg == "--cache-max-bytes") {
      a.service.cache_max_bytes = static_cast<std::uint64_t>(int_value(0));
      cache_bound_flag = "--cache-max-bytes";
    } else if (arg == "--idle-timeout-ms") {
      a.server.idle_timeout_ms = static_cast<int>(int_value(0, kIntMax));
    } else if (arg == "--request-timeout-ms") {
      a.server.request_timeout_ms = static_cast<int>(int_value(0, kIntMax));
    } else if (arg == "--write-timeout-ms") {
      a.server.write_timeout_ms = static_cast<int>(int_value(0, kIntMax));
    } else if (arg == "--queue-deadline-ms") {
      a.server.queue_deadline_ms = static_cast<int>(int_value(0, kIntMax));
    } else if (arg == "--fault-seed") {
      a.fault_seed = tool::parse_u64_flag(kProgram, "--fault-seed", next());
    } else if (arg == "--fault-rate") {
      a.fault_rate = static_cast<int>(int_value(0, 1024));
    } else {
      usage();
    }
  }
  tool::require_cache_dir_for_bound(kProgram, cache_bound_flag,
                                    a.service.cache_dir.has_value());
  // One flag sizes both the reactor's cap and the service's error line.
  a.service.max_request_bytes = a.server.max_request_bytes;
  if (a.socket_path.empty() && !a.listen_endpoint.has_value()) {
    std::fprintf(stderr, "fppn_serve: --socket PATH is required\n");
    std::exit(2);
  }
  return a;
}

int run_server(ServeArgs args) {
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
                   ep.path.c_str(), args.server.solver_threads,
                   static_cast<long long>(args.service.processors));
    } else {
      // The bound port (ephemeral binds resolve to a real one) — tests
      // and scripts parse it from this line.
      std::fprintf(stderr,
                   "fppn_serve: listening on tcp %s:%u (%d worker(s), m=%lld)\n",
                   ep.host.c_str(), static_cast<unsigned>(ep.port),
                   args.server.solver_threads,
                   static_cast<long long>(args.service.processors));
    }
  }

  engine::Engine engine;
  engine::SolveService service(engine, args.service);
  args.server.stop_fd = g_stop_pipe[0];
  net::Server server(args.server, service.protocol(), service.handler());
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
  const std::optional<std::string> response = net::exchange(endpoint, request_text);
  if (!response.has_value()) {
    std::fprintf(stderr, "fppn_serve: cannot connect to '%s': %s\n", target.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::fputs(response->c_str(), stdout);
  const char* expected = args.stats_request ? "fppn-serve stats" : "fppn-serve ok";
  return response->rfind(expected, 0) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const ServeArgs args = parse_args(argc, argv);
  return args.client_mode() ? run_client(args) : run_server(args);
}
