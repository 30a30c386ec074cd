// Versioned text serialization of schedule-cache entries — the on-disk
// format behind sched::ScheduleCache (see docs/FILE_FORMATS.md for the
// grammar and an annotated example).
//
// One entry is one StaticSchedule plus the provenance needed to verify the
// entry still matches the query that produced it — the sched::CacheKey it
// was stored under (graph fingerprint, strategy name, seed, processor
// count, search budget), which ScheduleEntry extends, so a disk hit is
// checked with one key compare — and the strategy's human-readable
// detail line. Line-oriented; starts with the magic/version
// line "fppn-schedule v1" and ends with "end". Rationals use the same
// "25" / "40/3" spelling as the .fppn network format, so placements
// round-trip exactly (canonical numerator/denominator).
//
// The writer fills one reserved std::string with std::to_chars: the bytes
// are what an iostream writer gives (decimal integers, "num" or "num/den"
// starts as Rational::to_string spells them), without a stream or a
// per-line string. tests/io_test.cpp pins the bytes of recorded entries,
// fractional, partial and extreme ones included.
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
#include "sched/schedule_cache.hpp"
#include "sched/static_schedule.hpp"

namespace fppn::io {

/// Current entry-format version, written as "fppn-schedule v<N>". Readers
/// reject every other version (the cache treats that as a miss and
/// rewrites the entry).
constexpr int kScheduleFormatVersion = 1;

/// One cache entry: its key (the provenance header: fingerprint,
/// strategy, seed, processors, budget) plus the strategy's detail line
/// and the schedule.
struct ScheduleEntry : sched::CacheKey {
  std::string detail;  ///< StrategyResult::detail, verbatim
  StaticSchedule schedule;
};

/// Renders an entry in format version kScheduleFormatVersion. Never throws.
[[nodiscard]] std::string write_schedule_entry(const ScheduleEntry& entry);
/// The same bytes, appended to `out` (the wire response renders its
/// status line and the entry into one buffer).
void append_schedule_entry(std::string& out, const ScheduleEntry& entry);

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
