#include "engine/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "io/schedule_format.hpp"
#include "taskgraph/fingerprint.hpp"

namespace fppn {
namespace engine {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
}

/// True iff `text` is `verb` with surrounding ASCII whitespace (compared
/// in place: a request can be a whole network).
bool is_verb(const std::string& text, std::string_view verb) {
  const char* ws = " \t\r\n";
  const std::size_t first = text.find_first_not_of(ws);
  if (first == std::string::npos) {
    return verb.empty();
  }
  const std::size_t last = text.find_last_not_of(ws);
  return std::string_view(text).substr(first, last - first + 1) == verb;
}

/// Nearest-rank percentile of an unsorted sample copy.
double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

/// The one SearchConfig every request of a service solves with.
SearchConfig request_config(const ServiceOptions& options) {
  SearchConfig config;
  config.processors = options.processors;
  config.seed = options.seed;
  config.workers = options.search_workers;
  config.optimize = options.optimize;
  if (options.cache_dir.has_value()) {
    config.cache_dir = options.cache_dir;
    config.cache_max_entries = options.cache_max_entries;
    config.cache_max_bytes = options.cache_max_bytes;
  } else {
    config.memory_cache = true;  // the shared L1 across requests
  }
  return config;
}

}  // namespace

SolveService::SolveService(Engine& engine, ServiceOptions options)
    : engine_(engine),
      options_(std::move(options)),
      config_(request_config(options_)),
      search_(config_.search_options()),
      started_(Clock::now()) {
  latency_ring_.reserve(256);
}

std::string SolveService::handle(const std::string& request,
                                 const RequestLoad& load) {
  if (is_verb(request, "stats")) {
    return render_stats();
  }
  const double queue_wait_ms = load.queue_wait_ms;

  const Clock::time_point handle_begin = Clock::now();
  std::string response;
  bool ok = false;
  SolveReport report;
  std::string error_detail;
  try {
    SolveRequest solve_request;
    solve_request.network_text = request;
    solve_request.config = config_;
    report = engine_.solve(solve_request);

    // The status line and the entry go into one buffer.
    response = "fppn-serve ok fingerprint ";
    response += fingerprint_hex(report.fingerprint);
    response += " candidates ";
    response += std::to_string(report.search.candidates);
    response += " evaluated ";
    response += std::to_string(report.search.evaluated);
    response += " cached ";
    response += std::to_string(report.search.cache_hits);
    response += " winner ";
    response += report.search.best.strategy;
    response += " seed ";
    response += std::to_string(report.search.seed);
    response += report.feasible() ? " feasible 1\n" : " feasible 0\n";

    sched::StrategyResult& best = report.search.best;
    const sched::SearchCandidate winner{best.strategy, report.search.seed};
    const io::ScheduleEntry entry{
        sched::make_cache_key(report.fingerprint, winner.strategy,
                              sched::strategy_options_for(search_, winner)),
        std::move(best.detail), std::move(best.schedule)};
    io::append_schedule_entry(response, entry);
    ok = true;
  } catch (const io::ParseError& e) {
    error_detail = std::string("parse error: ") + e.what();
    response = "fppn-serve error: " + error_detail + "\n";
  } catch (const std::exception& e) {
    error_detail = e.what();
    response = std::string("fppn-serve error: ") + error_detail + "\n";
  }

  const double total_ms = queue_wait_ms + ms_since(handle_begin);
  record(ok, total_ms, report.cache);

  if (options_.verbose) {
    std::uint64_t number = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      number = request_counter_;
    }
    if (ok) {
      std::fprintf(stderr,
                   "fppn_serve: #%llu ok fp=%016llx winner=%s evaluated=%zu "
                   "cached=%zu queue-wait=%.2fms parse=%.2fms derive=%.2fms "
                   "search=%.2fms total=%.2fms\n",
                   static_cast<unsigned long long>(number),
                   static_cast<unsigned long long>(report.fingerprint),
                   report.search.best.strategy.c_str(), report.search.evaluated,
                   report.search.cache_hits, queue_wait_ms, report.parse_ms,
                   report.derive_ms, report.search_ms, total_ms);
    } else {
      std::fprintf(stderr,
                   "fppn_serve: #%llu error %s queue-wait=%.2fms total=%.2fms\n",
                   static_cast<unsigned long long>(number), error_detail.c_str(),
                   queue_wait_ms, total_ms);
    }
  }
  return response;
}

void SolveService::record(bool ok, double total_ms,
                          const sched::CacheStats& cache_delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++request_counter_;
  ++counters_.requests;
  if (ok) {
    ++counters_.ok;
  } else {
    ++counters_.errors;
  }
  counters_.cache_hits += cache_delta.hits;
  counters_.cache_misses += cache_delta.misses;
  if (latency_ring_.size() < kLatencyWindow) {
    latency_ring_.push_back(total_ms);
  } else {
    latency_ring_[latency_next_ % kLatencyWindow] = total_ms;
  }
  ++latency_next_;
}

std::string SolveService::overloaded_line() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.overloaded;
  }
  if (options_.verbose) {
    std::fprintf(stderr, "fppn_serve: rejected request: queue full\n");
  }
  return "fppn-serve error: overloaded\n";
}

std::string SolveService::oversized_line(std::size_t bytes_seen) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.oversized;
  }
  if (options_.verbose) {
    std::fprintf(stderr, "fppn_serve: rejected request: %zu byte(s) read\n",
                 bytes_seen);
  }
  char line[128];
  std::snprintf(line, sizeof(line),
                "fppn-serve error: request too large: exceeds --max-request-bytes "
                "%zu\n",
                options_.max_request_bytes);
  return line;
}

std::string SolveService::read_error_line(int error) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.read_errors;
  }
  if (options_.verbose) {
    std::fprintf(stderr, "fppn_serve: request read failed: %s\n",
                 std::strerror(error));
  }
  return std::string("fppn-serve error: request read failed: ") +
         std::strerror(error) + "\n";
}

std::string SolveService::deadline_exceeded_line() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counters_.shed;
  }
  if (options_.verbose) {
    std::fprintf(stderr, "fppn_serve: shed request: queue deadline exceeded\n");
  }
  return "fppn-serve error: deadline exceeded\n";
}

void SolveService::note_timeout(net::Reactor::TimeoutKind kind) {
  const char* name = "idle";
  {
    const std::lock_guard<std::mutex> lock(mu_);
    switch (kind) {
      case net::Reactor::TimeoutKind::kIdle:
        ++counters_.idle_timeouts;
        break;
      case net::Reactor::TimeoutKind::kRequest:
        ++counters_.request_timeouts;
        name = "request";
        break;
      case net::Reactor::TimeoutKind::kWrite:
        ++counters_.write_timeouts;
        name = "write";
        break;
    }
  }
  if (options_.verbose) {
    std::fprintf(stderr, "fppn_serve: closed connection: %s deadline exceeded\n",
                 name);
  }
}

net::ServerProtocol SolveService::protocol() {
  net::ServerProtocol p;
  p.overloaded = [this] { return overloaded_line(); };
  p.oversized = [this](std::size_t bytes_seen) { return oversized_line(bytes_seen); };
  p.read_error = [this](int error) { return read_error_line(error); };
  p.deadline_exceeded = [this] { return deadline_exceeded_line(); };
  p.timed_out = [this](net::Reactor::TimeoutKind kind) { note_timeout(kind); };
  return p;
}

net::Server::Handler SolveService::handler() {
  return [this](std::string request, const net::RequestInfo& info) {
    return handle(request, info.queue_wait_ms);
  };
}

ServiceStats SolveService::stats() const {
  std::vector<double> samples;
  ServiceStats snapshot;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snapshot = counters_;
    samples = latency_ring_;
  }
  snapshot.p50_ms = percentile(samples, 50.0);
  snapshot.p99_ms = percentile(std::move(samples), 99.0);
  snapshot.uptime_ms = ms_since(started_);
  return snapshot;
}

std::string SolveService::render_stats() {
  const ServiceStats s = stats();
  const double lookups =
      static_cast<double>(s.cache_hits) + static_cast<double>(s.cache_misses);
  const double hit_rate =
      lookups > 0.0 ? static_cast<double>(s.cache_hits) / lookups : 0.0;
  // The robustness counters sit between the transport rejects and the
  // cache block; the line stays one append-only token stream, so the
  // golden prefix checks (through "oversized N ") keep holding.
  char line[768];
  std::snprintf(line, sizeof(line),
                "fppn-serve stats requests %llu ok %llu errors %llu overloaded "
                "%llu read-errors %llu oversized %llu shed %llu "
                "idle-timeouts %llu request-timeouts %llu write-timeouts %llu "
                "cache-hits %llu cache-misses %llu hit-rate %.3f p50-ms %.3f "
                "p99-ms %.3f uptime-ms %.1f\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.ok),
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.overloaded),
                static_cast<unsigned long long>(s.read_errors),
                static_cast<unsigned long long>(s.oversized),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.idle_timeouts),
                static_cast<unsigned long long>(s.request_timeouts),
                static_cast<unsigned long long>(s.write_timeouts),
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.cache_misses), hit_rate,
                s.p50_ms, s.p99_ms, s.uptime_ms);
  return line;
}

}  // namespace engine
}  // namespace fppn
