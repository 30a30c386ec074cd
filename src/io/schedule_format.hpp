// Versioned text serialization of schedule-cache entries — the on-disk
// format behind sched::ScheduleCache (see docs/FILE_FORMATS.md for the
// grammar and an annotated example).
//
// One entry is one StaticSchedule plus the provenance needed to verify the
// entry still matches the query that produced it: graph fingerprint,
// strategy name, seed, processor count, search budget and the strategy's
// human-readable detail line. Line-oriented; starts with the magic/version
// line "fppn-schedule v1" and ends with "end". Rationals use the same
// "25" / "40/3" spelling as the .fppn network format, so placements
// round-trip exactly (canonical numerator/denominator).
//
// Deterministic: write_schedule_entry is a pure function of the entry;
// read(write(e)) reproduces every field bit-identically.
// Thread safety: both functions are stateless and safe to call
// concurrently; callers synchronize access to shared streams themselves.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "io/text_format.hpp"
#include "sched/static_schedule.hpp"

namespace fppn::io {

/// Current entry-format version, written as "fppn-schedule v<N>". Readers
/// reject every other version (the cache treats that as a miss and
/// rewrites the entry).
constexpr int kScheduleFormatVersion = 1;

/// One cache entry: a schedule plus its provenance.
struct ScheduleEntry {
  std::uint64_t fingerprint = 0;   ///< taskgraph fingerprint (16 hex digits)
  std::string strategy;            ///< producing strategy's registry name
  std::uint64_t seed = 0;          ///< seed the strategy ran with
  std::int64_t processors = 0;     ///< processor count scheduled for
  int max_iterations = 0;          ///< iteration budget of the search
  int restarts = 0;                ///< restart budget of the search
  std::string detail;              ///< StrategyResult::detail, verbatim
  StaticSchedule schedule;
};

/// Renders an entry in format version kScheduleFormatVersion. Never throws.
[[nodiscard]] std::string write_schedule_entry(const ScheduleEntry& entry);

/// Parses one entry and consumes the stream to its end. Throws ParseError
/// (with a 1-based line number) on a wrong magic/version line, malformed
/// or missing fields, a budget outside `int`, out-of-range placements, a
/// missing "end" trailer (truncation guard), or any non-blank content
/// after "end" — a truncated-then-concatenated file must not half-parse.
/// With `expected_jobs` set, a "jobs" count other than it is a ParseError
/// too, raised before the schedule is sized by that count.
[[nodiscard]] ScheduleEntry read_schedule_entry(
    std::istream& in, std::optional<std::size_t> expected_jobs = std::nullopt);
[[nodiscard]] ScheduleEntry read_schedule_entry_string(
    const std::string& text, std::optional<std::size_t> expected_jobs = std::nullopt);

}  // namespace fppn::io
