// engine::SolveService — the protocol-and-observability layer between
// the net serving stack and engine::Engine, and the one place where the
// two meet: it renders the byte-stable
// "fppn-serve ..." wire responses (the grammar PR 8's golden tests pin),
// answers the `stats` verb, and aggregates per-request accounting —
// counts, cache hit totals and an end-to-end latency distribution
// (queue wait + solve + render) — so the daemon can report p50/p99 since
// start without ever touching search internals.
//
// Responsibilities split:
//   net::Server     owns sockets, framing, backpressure *mechanics*;
//   SolveService    owns every byte of the response grammar (including
//                   the overload/oversize/read-error lines the server's
//                   protocol hooks request) and all request accounting;
//   engine::Engine  owns solving.
// protocol() and handler() are the whole wiring of a service into a
// net::Server, so a daemon is `net::Server(options, service.protocol(),
// service.handler())`. net knows nothing of the engine; engine.hpp and
// solve.hpp stay net-free.
//
// Counting model (documented in docs/FILE_FORMATS.md): `requests` are
// solve attempts the service answered (ok + errors). Transport rejects —
// overloaded, oversized, read-error — are counted separately and do not
// enter the latency distribution; `stats` requests are not counted at
// all. Latency percentiles are computed over a ring of the most recent
// kLatencyWindow samples.
//
// A response depends only on the request and the ServiceOptions, never
// on the load the server measured: every request runs the configured
// preset, however full the queue is.
//
// Thread safety: every member is safe to call concurrently (the solver
// pool runs handle() on N threads while the reactor thread calls the
// note_*/line hooks).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "net/server.hpp"

namespace fppn {
namespace engine {

/// The serving knobs every request shares (one service = one daemon).
struct ServiceOptions {
  std::int64_t processors = 2;
  std::uint64_t seed = 1;
  /// Per-solve search worker threads (0 = hardware concurrency).
  int search_workers = 0;
  bool optimize = false;
  /// Per-request summary lines on stderr.
  bool verbose = false;
  /// Disk cache instead of the in-memory L1 when set (every store and
  /// disk hit evicts it down to the bounds below).
  std::optional<std::string> cache_dir;
  std::size_t cache_max_entries = 0;
  std::uint64_t cache_max_bytes = 0;
  /// Echoed in the oversize error line; 0 = unlimited.
  std::size_t max_request_bytes = 0;
};

/// The load signals net::Server measured for one request. Only
/// queue_wait_ms enters the service's accounting: a request's response
/// never depends on the load. queue_depth and queue_capacity are read
/// by nothing here; they stay only because the benchmark harness
/// (perfbench/src/workloads.cpp) still writes them, and go with that
/// harness's next change.
struct RequestLoad {
  double queue_wait_ms = 0.0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
};

/// Snapshot of the aggregate counters (see the counting model above).
struct ServiceStats {
  std::uint64_t requests = 0;     ///< solve attempts answered (ok + errors)
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;       ///< solve attempts answered with an error line
  std::uint64_t overloaded = 0;   ///< rejected: work queue full
  std::uint64_t read_errors = 0;  ///< rejected: torn request (hard read failure)
  std::uint64_t oversized = 0;    ///< rejected: --max-request-bytes exceeded
  std::uint64_t shed = 0;         ///< rejected: queue wait passed --queue-deadline-ms
  std::uint64_t idle_timeouts = 0;     ///< closed: silent after accept
  std::uint64_t request_timeouts = 0;  ///< closed: request never completed
  std::uint64_t write_timeouts = 0;    ///< closed: response write stalled
  std::uint64_t cache_hits = 0;   ///< summed over per-solve cache deltas
  std::uint64_t cache_misses = 0;
  double p50_ms = 0.0;            ///< end-to-end latency percentiles
  double p99_ms = 0.0;            ///< (queue wait + solve + render)
  double uptime_ms = 0.0;
};

class SolveService {
 public:
  /// Latency percentile window: the most recent samples considered.
  static constexpr std::size_t kLatencyWindow = 8192;

  SolveService(Engine& engine, ServiceOptions options);

  /// Handles one request: the `stats` verb (request text "stats",
  /// surrounding whitespace ignored) or a `.fppn` network to solve.
  /// Returns the full response text; never throws (solve errors become
  /// "fppn-serve error:" responses, exactly the PR 8 grammar). The
  /// load's queue wait enters the latency accounting.
  [[nodiscard]] std::string handle(const std::string& request,
                                   const RequestLoad& load);

  /// Convenience overload for callers with only a queue wait to report.
  [[nodiscard]] std::string handle(const std::string& request, double queue_wait_ms) {
    RequestLoad load;
    load.queue_wait_ms = queue_wait_ms;
    return handle(request, load);
  }

  // --- transport-reject response lines (net::ServerProtocol hooks) ----
  // Each renders the response *and* counts the event.
  [[nodiscard]] std::string overloaded_line();
  [[nodiscard]] std::string oversized_line(std::size_t bytes_seen);
  [[nodiscard]] std::string read_error_line(int error);
  /// Queue-deadline shed response (net::ServerProtocol::deadline_exceeded).
  [[nodiscard]] std::string deadline_exceeded_line();

  /// Counts a reactor-deadline close (net::ServerProtocol::timed_out).
  /// Notification only: the peer is gone, so there is no response line.
  void note_timeout(net::Reactor::TimeoutKind kind);

  /// All five net::ServerProtocol hooks bound to this service (the lines
  /// above and note_timeout). The service must outlive the server.
  [[nodiscard]] net::ServerProtocol protocol();

  /// The net::Server handler: handle(request, info.queue_wait_ms).
  [[nodiscard]] net::Server::Handler handler();

  /// The `stats` verb response (also what handle() returns for it).
  [[nodiscard]] std::string render_stats();

  [[nodiscard]] ServiceStats stats() const;

 private:
  void record(bool ok, double total_ms, const sched::CacheStats& cache_delta);

  Engine& engine_;
  const ServiceOptions options_;
  /// What every request solves with, resolved once from options_: the
  /// search config, and its search options for the response's entry.
  const SearchConfig config_;
  const sched::ParallelSearchOptions search_;
  const std::chrono::steady_clock::time_point started_;

  mutable std::mutex mu_;
  ServiceStats counters_;
  std::vector<double> latency_ring_;   ///< capped at kLatencyWindow
  std::size_t latency_next_ = 0;       ///< ring write cursor
  std::uint64_t request_counter_ = 0;  ///< verbose line numbering
};

}  // namespace engine
}  // namespace fppn
