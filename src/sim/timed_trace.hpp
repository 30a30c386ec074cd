// Timed execution traces of the online policy — what Fig. 6 of the paper
// visualizes: job execution spans per processor, runtime overhead spans,
// false-job skips and deadline misses, over absolute (multi-frame) time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rt/ids.hpp"
#include "rt/time.hpp"

namespace fppn {

enum class TraceEventKind : std::uint8_t {
  kFrameStart,     ///< frame boundary n*H
  kOverhead,       ///< runtime-environment span (job arrival management)
  kJobRun,         ///< an executed job span [time, end)
  kFalseSkip,      ///< a server job marked 'false' and skipped (instant)
  kDeadlineMiss,   ///< job completed after its absolute deadline (instant)
};

[[nodiscard]] std::string to_string(TraceEventKind k);

struct TraceEvent {
  TraceEventKind kind;
  std::int64_t frame = 0;
  ProcessorId processor;        ///< invalid for frame markers
  std::string label;            ///< job display name or marker text
  Time time;                    ///< start (or instant)
  std::optional<Time> end;      ///< end of span events
};

class TimedTrace {
 public:
  void add(TraceEvent e) { events_.push_back(std::move(e)); }
  void reserve(std::size_t events) { events_.reserve(events); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }

  [[nodiscard]] std::vector<TraceEvent> of_kind(TraceEventKind k) const;

  [[nodiscard]] std::size_t deadline_miss_count() const;
  [[nodiscard]] std::size_t executed_job_count() const;
  [[nodiscard]] std::size_t false_skip_count() const;

  /// Latest event end time.
  [[nodiscard]] Time span_end() const;

  /// One-line counts summary.
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace fppn
