// Timed execution traces of the online policy — what Fig. 6 of the paper
// visualizes: job execution spans per processor, runtime overhead spans,
// false-job skips and deadline misses, over absolute (multi-frame) time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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

struct TraceEvent {
  TraceEventKind kind;
  std::int64_t frame = 0;
  ProcessorId processor;        ///< invalid for frame markers
  /// Job display name or marker text. Inside a trace it views the trace's
  /// own label storage: valid as long as that trace lives, so an event
  /// copied out of a trace (of_kind) must not outlive it.
  std::string_view label;
  Time time;                    ///< start (or instant)
  std::optional<Time> end;      ///< end of span events
};

/// The events of one run and the text of their labels. A label is stored
/// once and shared by every event that names it: a runtime interns each
/// job's name once per run instead of copying it into each of the job's
/// events. Stored text never moves, so moving a trace keeps its events'
/// labels valid. A trace is move-only: a member-wise copy would hold
/// views of the source's storage.
class TimedTrace {
 public:
  TimedTrace() = default;
  TimedTrace(const TimedTrace&) = delete;
  TimedTrace& operator=(const TimedTrace&) = delete;
  TimedTrace(TimedTrace&&) noexcept = default;
  TimedTrace& operator=(TimedTrace&&) noexcept = default;

  /// Stores `text` in the trace's label storage and returns the stored
  /// copy. Events added with it share that text.
  std::string_view intern(std::string_view text);

  /// Appends `e`. A label that is not a view returned by intern() on this
  /// trace is copied into the trace first, so the caller's text may end
  /// with the call.
  void add(TraceEvent e);
  void reserve(std::size_t events) { events_.reserve(events); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }

  /// Copies of the events of kind `k`; their labels view this trace.
  [[nodiscard]] std::vector<TraceEvent> of_kind(TraceEventKind k) const;

  [[nodiscard]] std::size_t deadline_miss_count() const;
  [[nodiscard]] std::size_t executed_job_count() const;
  [[nodiscard]] std::size_t false_skip_count() const;

  /// Latest event end time.
  [[nodiscard]] Time span_end() const;

  /// One-line counts summary.
  [[nodiscard]] std::string summary() const;

 private:
  /// One block of label text; blocks never grow or move.
  struct LabelBlock {
    std::unique_ptr<char[]> bytes;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  /// True when `label` views text stored in this trace.
  [[nodiscard]] bool owns(std::string_view label) const;

  std::vector<TraceEvent> events_;
  std::vector<LabelBlock> labels_;
};

}  // namespace fppn
