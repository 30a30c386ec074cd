// Span recording for the traced benchmark run.
//
// Spans are recorded only in the benchmark's own code, around its calls
// into the library's public functions; nothing inside the program is
// instrumented. Each span has a name, a start and end on the steady
// clock, the id of the span that caused it (0 = root) and the id of the
// operation it belongs to. Spans stay in memory until the run ends and
// are then written as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto) with a per-name self-time summary beside
// it.
//
// With tracing off the benchmark holds no Tracer at all, so the
// end-to-end runs pay nothing for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
double ms_between(Clock::time_point begin, Clock::time_point end);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t thread = 0;  ///< small per-thread number, for the viewer

  [[nodiscard]] double duration_ms() const { return ms_between(start, end); }
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  Tracer();

  /// A fresh span id, for a span whose children are recorded before it
  /// ends (the client round trip: the server records its spans first).
  std::uint64_t reserve_id();

  /// Records a finished span under a reserved or fresh id; returns the id.
  std::uint64_t record(std::string name, Clock::time_point start, Clock::time_point end,
                       std::uint64_t op, std::uint64_t parent = 0,
                       std::uint64_t id = 0);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its children (children clipped to the parent, overlaps
  /// merged). Keyed by span id.
  [[nodiscard]] std::map<std::uint64_t, double> self_times_ms() const;

  /// Writes the Chrome trace-event file and the self-time summary
  /// (per span name: count, total and self milliseconds). Throws
  /// std::runtime_error when a file cannot be written.
  void write(const std::string& trace_path, const std::string& summary_path) const;

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint64_t> thread_numbers_;
};

/// Runs `body`, records it as a span when a tracer is given, and returns
/// its duration in milliseconds either way.
template <class Body>
double timed_span(Tracer* tracer, const std::string& name, std::uint64_t op,
                  std::uint64_t parent, Body&& body) {
  const Clock::time_point start = Clock::now();
  body();
  const Clock::time_point end = Clock::now();
  if (tracer != nullptr) {
    tracer->record(name, start, end, op, parent);
  }
  return ms_between(start, end);
}

}  // namespace perfbench
