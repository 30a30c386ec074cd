// Serving-stack throughput and contract gates: the in-process net::Server
// (reactor + bounded queue + 4 solver threads) with engine::SolveService
// behind it, driven by 32 concurrent socket clients over generated
// scenario mixes — cold requests/sec, warm (all-cached) requests/sec,
// p50/p99 end-to-end latency, and five hard gates emitted into
// BENCH_serve.json: every warm repeat answered with `evaluated 0`, a
// saturated queue answering the overload line immediately, the service
// counters agreeing with the driven load, a slow-loris client cut within
// 2x the request deadline while healthy clients are served
// (serve_deadline_enforced_agree), and a seeded fault-injection sweep
// finishing crash-free with uncorrupted responses
// (serve_chaos_crash_free_agree).
#include <benchmark/benchmark.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "gen/scenario.hpp"
#include "net/listener.hpp"
#include "net/server.hpp"
#include "testing/fault_injector.hpp"

namespace {

using namespace fppn;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 32;
constexpr int kSolverThreads = 4;

double seconds_since(const Clock::time_point& t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
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

std::string roundtrip(const net::Endpoint& endpoint, const std::string& request) {
  const int fd = net::connect_endpoint(endpoint);
  if (fd < 0) {
    return "<connect failed>";
  }
  write_all(fd, request);
  ::shutdown(fd, SHUT_WR);
  const std::string response = read_to_eof(fd);
  ::close(fd);
  return response;
}

/// The daemon wired up in-process: one Engine, one SolveService, one
/// net::Server on a private Unix socket, running on its own thread.
class ServeFixture {
 public:
  explicit ServeFixture(const std::string& tag, int solver_threads = kSolverThreads,
                        std::size_t queue_capacity = 64, int request_timeout_ms = 0) {
    socket_dir_ = (fs::temp_directory_path() /
                   ("fppn_bench_serve_" + tag + "_" + std::to_string(::getpid())))
                      .string();
    fs::remove_all(socket_dir_);
    fs::create_directories(socket_dir_);
    socket_path_ = socket_dir_ + "/serve.sock";

    engine::ServiceOptions service_options;
    service_options.processors = 2;
    service_options.seed = 1;
    service_ = std::make_unique<engine::SolveService>(engine_, service_options);

    net::ServerOptions options;
    options.solver_threads = solver_threads;
    options.queue_capacity = queue_capacity;
    options.request_timeout_ms = request_timeout_ms;
    net::ServerProtocol protocol;
    protocol.overloaded = [this] { return service_->overloaded_line(); };
    protocol.oversized = [this](std::size_t bytes) {
      return service_->oversized_line(bytes);
    };
    protocol.read_error = [this](int error) {
      return service_->read_error_line(error);
    };
    protocol.deadline_exceeded = [this] {
      return service_->deadline_exceeded_line();
    };
    protocol.timed_out = [this](net::Reactor::TimeoutKind kind) {
      service_->note_timeout(kind == net::Reactor::TimeoutKind::kIdle
                                 ? engine::ServeTimeout::kIdle
                                 : kind == net::Reactor::TimeoutKind::kRequest
                                       ? engine::ServeTimeout::kRequest
                                       : engine::ServeTimeout::kWrite);
    };
    server_ = std::make_unique<net::Server>(
        options, protocol,
        [this](std::string request, const net::RequestInfo& info) {
          return service_->handle(std::move(request), info.queue_wait_ms);
        });
    server_->add_listener(
        net::Listener::listen(net::Endpoint::unix_socket(socket_path_)));
    thread_ = std::thread([this] { server_->run(); });
  }

  ~ServeFixture() {
    server_->stop();
    thread_.join();
    std::error_code ec;
    fs::remove_all(socket_dir_, ec);
  }

  [[nodiscard]] net::Endpoint endpoint() const {
    return net::Endpoint::unix_socket(socket_path_);
  }
  [[nodiscard]] engine::SolveService& service() { return *service_; }
  [[nodiscard]] net::Server& server() { return *server_; }

 private:
  std::string socket_dir_;
  std::string socket_path_;
  engine::Engine engine_;
  std::unique_ptr<engine::SolveService> service_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

/// One round: kClients concurrent connections, client i sending
/// requests[i]. Returns elapsed seconds; responses land in `responses`.
double drive_round(const net::Endpoint& endpoint,
                   const std::vector<std::string>& requests,
                   std::vector<std::string>& responses) {
  responses.assign(requests.size(), "");
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i] { responses[i] = roundtrip(endpoint, requests[i]); });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  return seconds_since(t0);
}

/// Cold + warm concurrent rounds over a generated scenario mix, the
/// repeat-is-cached gate, and the counter-agreement gate.
bool print_throughput_report(benchjson::Report& report) {
  // 32 distinct generated scenarios (round-robin families): distinct
  // fingerprints, so the cold round fills the cache and the warm round
  // must be answered from it entirely.
  std::vector<std::string> requests;
  requests.reserve(kClients);
  for (std::uint64_t seed = 1; seed <= kClients; ++seed) {
    requests.push_back(gen::scenario_text(gen::make_scenario(seed)));
  }

  ServeFixture fixture("throughput");
  std::vector<std::string> responses;

  const double cold_s = drive_round(fixture.endpoint(), requests, responses);
  bool all_ok = true;
  for (const std::string& r : responses) {
    all_ok = all_ok && r.rfind("fppn-serve ok", 0) == 0;
  }
  const double cold_rps = static_cast<double>(kClients) / cold_s;
  std::printf("cold: %d concurrent clients, %d solver threads: %.2fs = %.1f req/sec%s\n",
              kClients, kSolverThreads, cold_s, cold_rps,
              all_ok ? "" : "  [RESPONSE ERRORS]");

  const double warm_s = drive_round(fixture.endpoint(), requests, responses);
  bool all_cached = true;
  for (const std::string& r : responses) {
    all_cached = all_cached && r.rfind("fppn-serve ok", 0) == 0 &&
                 r.find(" evaluated 0 ") != std::string::npos;
  }
  const double warm_rps = static_cast<double>(kClients) / warm_s;
  std::printf("warm: same %d requests again: %.2fs = %.1f req/sec — %s\n", kClients,
              warm_s, warm_rps,
              all_cached ? "every repeat evaluated 0" : "CACHE MISSED A REPEAT");

  const engine::ServiceStats stats = fixture.service().stats();
  std::printf("latency: p50 %.2fms p99 %.2fms over %llu requests\n", stats.p50_ms,
              stats.p99_ms, static_cast<unsigned long long>(stats.requests));
  const bool counters_ok = all_ok &&
                           stats.requests == static_cast<std::uint64_t>(2 * kClients) &&
                           stats.ok == static_cast<std::uint64_t>(2 * kClients) &&
                           stats.errors == 0 && stats.overloaded == 0;
  if (!counters_ok) {
    std::fprintf(stderr,
                 "counter mismatch: requests %llu ok %llu errors %llu overloaded "
                 "%llu (expected %d/%d/0/0)\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.ok),
                 static_cast<unsigned long long>(stats.errors),
                 static_cast<unsigned long long>(stats.overloaded), 2 * kClients,
                 2 * kClients);
  }

  report.metric("serve_clients", static_cast<long long>(kClients));
  report.metric("serve_solver_threads", static_cast<long long>(kSolverThreads));
  report.metric("serve_cold_requests_per_sec", cold_rps);
  report.metric("serve_warm_requests_per_sec", warm_rps);
  report.metric("serve_p50_ms", stats.p50_ms);
  report.metric("serve_p99_ms", stats.p99_ms);
  report.metric("serve_repeat_zero_eval_agree",
                static_cast<long long>((all_ok && all_cached) ? 1 : 0));
  report.metric("serve_stats_counters_agree", static_cast<long long>(counters_ok ? 1 : 0));
  return all_ok && all_cached && counters_ok;
}

/// Deterministic backpressure gate: one solver held shut by a latch
/// (magic "HOLD" requests the handler blocks on), one queue slot filled —
/// every further request must get the overload line immediately, and the
/// two admitted requests must still finish once the latch opens.
bool print_overload_report(benchjson::Report& report) {
  const std::string socket_dir =
      (fs::temp_directory_path() /
       ("fppn_bench_serve_overload_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(socket_dir);
  fs::create_directories(socket_dir);
  const std::string socket_path = socket_dir + "/serve.sock";

  engine::Engine engine;
  engine::SolveService service(engine, engine::ServiceOptions{});

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> active{0};

  net::ServerOptions options;
  options.solver_threads = 1;
  options.queue_capacity = 1;
  net::ServerProtocol protocol;
  protocol.overloaded = [&service] { return service.overloaded_line(); };
  net::Server server(options, protocol,
                     [&](std::string request, const net::RequestInfo& info) {
                       if (request == "HOLD") {
                         ++active;
                         std::unique_lock<std::mutex> lock(mu);
                         cv.wait(lock, [&] { return release; });
                         return std::string("held\n");
                       }
                       return service.handle(std::move(request), info.queue_wait_ms);
                     });
  server.add_listener(net::Listener::listen(net::Endpoint::unix_socket(socket_path)));
  std::thread server_thread([&] { server.run(); });
  const net::Endpoint endpoint = net::Endpoint::unix_socket(socket_path);

  // First HOLD occupies the solver, second fills the one queue slot: the
  // admission window is now provably zero until the latch opens.
  std::string response_a, response_b;
  std::thread client_a([&] { response_a = roundtrip(endpoint, "HOLD"); });
  for (int i = 0; i < 5000 && active.load() == 0; ++i) {
    ::usleep(1000);
  }
  std::thread client_b([&] { response_b = roundtrip(endpoint, "HOLD"); });
  for (int i = 0; i < 5000 && server.queue_size() == 0; ++i) {
    ::usleep(1000);
  }

  int rejected = 0;
  constexpr int kBurst = 8;
  const bool saturated = active.load() == 1 && server.queue_size() == 1;
  for (int i = 0; i < kBurst; ++i) {
    if (roundtrip(endpoint, "burst") == "fppn-serve error: overloaded\n") {
      ++rejected;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  client_a.join();
  client_b.join();
  server.stop();
  server_thread.join();
  std::error_code ec;
  fs::remove_all(socket_dir, ec);

  const bool admitted_ok = response_a == "held\n" && response_b == "held\n";
  const engine::ServiceStats stats = service.stats();
  const bool ok = saturated && admitted_ok && rejected == kBurst &&
                  stats.overloaded == static_cast<std::uint64_t>(kBurst);
  std::printf(
      "overload: queue 1 + 1 solver saturated, burst of %d: %d rejected "
      "immediately, admitted pair %s\n",
      kBurst, rejected, admitted_ok ? "completed" : "FAILED");
  if (stats.overloaded != static_cast<std::uint64_t>(rejected)) {
    std::fprintf(stderr, "overload counter %llu != %d rejected responses\n",
                 static_cast<unsigned long long>(stats.overloaded), rejected);
  }
  report.metric("serve_overload_rejected_agree", static_cast<long long>(ok ? 1 : 0));
  return ok;
}

/// Deadline gate: a slow-loris client dripping one byte every 25 ms
/// (so its request never completes) against a server with a 250 ms
/// request deadline, while 16 healthy clients round-trip warm solves.
/// The loris must be disconnected within 2x the deadline, every healthy
/// client must be answered, and the service counters must record the
/// timeout — the daemon's liveness-under-abuse contract.
bool print_deadline_report(benchjson::Report& report) {
  constexpr int kDeadlineMs = 250;
  constexpr int kHealthy = 16;
  ServeFixture fixture("deadline", kSolverThreads, 64, kDeadlineMs);
  const std::string request = gen::scenario_text(gen::make_scenario(7));
  (void)roundtrip(fixture.endpoint(), request);  // warm: healthy trips hit cache

  bool loris_closed = false;
  double loris_ms = 0.0;
  std::thread loris([&] {
    const int fd = net::connect_endpoint(fixture.endpoint());
    if (fd < 0) {
      return;
    }
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) * 1000.0 < 4.0 * kDeadlineMs) {
      if (::write(fd, "x", 1) < 0 && errno != EINTR && errno != EAGAIN) {
        loris_closed = true;  // EPIPE/ECONNRESET: the server hung up
        break;
      }
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 25) > 0) {
        char buf[16];
        if (::read(fd, buf, sizeof(buf)) == 0) {
          loris_closed = true;  // EOF: ditto
          break;
        }
      }
    }
    loris_ms = seconds_since(t0) * 1000.0;
    ::close(fd);
  });

  std::atomic<int> healthy_ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kHealthy);
  for (int i = 0; i < kHealthy; ++i) {
    clients.emplace_back([&] {
      if (roundtrip(fixture.endpoint(), request).rfind("fppn-serve ok", 0) == 0) {
        ++healthy_ok;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  loris.join();

  const engine::ServiceStats stats = fixture.service().stats();
  const bool ok = loris_closed && loris_ms <= 2.0 * kDeadlineMs &&
                  healthy_ok.load() == kHealthy && stats.request_timeouts >= 1;
  std::printf(
      "deadline: slow-loris cut after %.0fms (deadline %dms, bound %dms), "
      "%d/%d healthy clients answered, %llu request timeout(s) counted\n",
      loris_ms, kDeadlineMs, 2 * kDeadlineMs, healthy_ok.load(), kHealthy,
      static_cast<unsigned long long>(stats.request_timeouts));
  report.metric("serve_loris_cut_ms", loris_ms);
  report.metric("serve_request_timeouts",
                static_cast<long long>(stats.request_timeouts));
  report.metric("serve_shed", static_cast<long long>(stats.shed));
  report.metric("serve_deadline_enforced_agree", static_cast<long long>(ok ? 1 : 0));
  return ok;
}

/// Chaos gate: a short seeded fault-injection sweep over the full
/// in-process stack — injected EINTR/EAGAIN storms, synthetic
/// ECONNRESETs, and short reads/writes on the serving path. Crash-free
/// means every round's server drains with the injector still armed;
/// clean means no client ever read bytes that are not a prefix of a real
/// "fppn-serve " response. The deep 200-seed ASan sweep lives in
/// serve_chaos_test; this gate keeps the bench honest about the same
/// invariant.
bool print_chaos_report(benchjson::Report& report) {
  constexpr int kSeeds = 8;
  const std::string request = gen::scenario_text(gen::make_scenario(11));
  const std::string header = "fppn-serve ";
  int dirty = 0;
  unsigned long long injected = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    {
      ServeFixture fixture("chaos" + std::to_string(seed), /*solver_threads=*/2,
                           /*queue_capacity=*/8, /*request_timeout_ms=*/500);
      testing::FaultInjector::instance().arm(
          testing::FaultConfig::uniform(static_cast<std::uint64_t>(seed), 96));
      const std::string replies[] = {
          roundtrip(fixture.endpoint(), request),
          roundtrip(fixture.endpoint(), "stats"),
          roundtrip(fixture.endpoint(), "garbage request\n"),
      };
      for (const std::string& r : replies) {
        const std::size_t n = std::min(r.size(), header.size());
        if (r != "<connect failed>" && r.compare(0, n, header, 0, n) != 0) {
          ++dirty;
        }
      }
      // An abandoned client: half a request, closed without reading —
      // the response lands on a dead peer while faults are firing.
      const int fd = net::connect_endpoint(fixture.endpoint());
      if (fd >= 0) {
        write_all(fd, request.substr(0, request.size() / 2));
        ::close(fd);
      }
      injected += testing::FaultInjector::instance().injected_total();
    }  // the fixture drains with the injector still armed
    testing::FaultInjector::instance().disarm();
  }
  const bool ok = dirty == 0;
  std::printf(
      "chaos: %d seeds, 4 clients each under fault injection (96/1024): "
      "%llu fault(s) injected, %d corrupt read(s), every round drained\n",
      kSeeds, injected, dirty);
  report.metric("serve_chaos_seeds", static_cast<long long>(kSeeds));
  report.metric("serve_chaos_injected_faults", static_cast<long long>(injected));
  report.metric("serve_chaos_crash_free_agree", static_cast<long long>(ok ? 1 : 0));
  return ok;
}

void BM_WarmServeRoundtrip(benchmark::State& state) {
  static ServeFixture* fixture = [] {
    auto* f = new ServeFixture("micro");
    return f;
  }();
  static const std::string request = gen::scenario_text(gen::make_scenario(3));
  (void)roundtrip(fixture->endpoint(), request);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(roundtrip(fixture->endpoint(), request));
  }
}
BENCHMARK(BM_WarmServeRoundtrip)->Unit(benchmark::kMicrosecond);

void BM_StatsVerb(benchmark::State& state) {
  static ServeFixture fixture("stats");
  for (auto _ : state) {
    benchmark::DoNotOptimize(roundtrip(fixture.endpoint(), "stats"));
  }
}
BENCHMARK(BM_StatsVerb)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::printf(
      "serving stack: reactor + bounded work queue + solver pool over one\n"
      "engine. %d concurrent clients, %d solver threads, generated\n"
      "scenario mixes; the gates below are the daemon's serving contract.\n\n",
      kClients, kSolverThreads);
  benchjson::Report report("serve");
  const bool throughput_ok = print_throughput_report(report);
  const bool overload_ok = print_overload_report(report);
  const bool deadline_ok = print_deadline_report(report);
  const bool chaos_ok = print_chaos_report(report);
  const std::string json_path = report.write();
  if (!json_path.empty()) {
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (!throughput_ok || !overload_ok || !deadline_ok || !chaos_ok) {
    std::fprintf(stderr, "FAIL: serve gates did not hold\n");
    return 1;
  }
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (smoke) {
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
