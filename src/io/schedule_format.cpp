#include "io/schedule_format.hpp"

#include <charconv>
#include <sstream>

#include "io/line_parser.hpp"
#include "taskgraph/fingerprint.hpp"

namespace fppn::io {

namespace {

/// Writes the decimal spelling of `v` (std::to_string's digits) at `at`.
template <class Int>
char* put_int(char* at, Int v) {
  return std::to_chars(at, at + 24, v).ptr;
}

}  // namespace

void append_schedule_entry(std::string& out, const ScheduleEntry& entry) {
  const StaticSchedule& schedule = entry.schedule;
  out.reserve(out.size() + 160 + entry.strategy.size() + entry.detail.size() +
              schedule.job_count() * 24);
  out += "fppn-schedule v" + std::to_string(kScheduleFormatVersion);
  out += "\nfingerprint " + fingerprint_hex(entry.fingerprint);
  out += "\nstrategy ";
  out += entry.strategy;
  out += "\nseed " + std::to_string(entry.seed);
  out += "\nprocessors " + std::to_string(entry.processors);
  out += "\nbudget " + std::to_string(entry.max_iterations) + ' ' +
         std::to_string(entry.restarts);
  out += "\ndetail ";
  out += entry.detail;
  out += "\njobs " + std::to_string(schedule.job_count()) + '\n';
  // One "place" line per placed job, each run of integers written with
  // to_chars into `line`: four of at most 20 characters and separators.
  char line[128];
  for (std::size_t i = 0; i < schedule.job_count(); ++i) {
    const JobId id(i);
    if (!schedule.is_placed(id)) {
      continue;  // partial schedules: unplaced jobs simply have no line
    }
    // The start as Rational::to_string spells it: "num" or "num/den".
    const Placement& p = schedule.placement(id);
    const Rational& start = p.start.value();
    out += "place ";
    char* at = put_int(line, i);
    *at++ = ' ';
    at = put_int(at, p.processor.value());
    *at++ = ' ';
    at = put_int(at, start.num());
    if (start.den() != 1) {
      *at++ = '/';
      at = put_int(at, start.den());
    }
    *at++ = '\n';
    out.append(line, static_cast<std::size_t>(at - line));
  }
  out += "end\n";
}

std::string write_schedule_entry(const ScheduleEntry& entry) {
  std::string out;
  append_schedule_entry(out, entry);
  return out;
}

ScheduleEntry read_schedule_entry(std::istream& in,
                                  std::optional<std::size_t> expected_jobs) {
  detail::LineParser parser(in);
  constexpr const char* kEof = "unexpected end of schedule entry (no 'end' trailer?)";

  // Magic/version first: anything else means "not a (current) cache entry".
  {
    const auto toks = parser.next_tokens(kEof);
    if (toks.size() != 2 || toks[0] != "fppn-schedule" ||
        toks[1] != "v" + std::to_string(kScheduleFormatVersion)) {
      throw ParseError(parser.lineno(), "expected header 'fppn-schedule v" +
                                            std::to_string(kScheduleFormatVersion) +
                                            "'");
    }
  }

  ScheduleEntry entry;
  {
    const auto toks = parser.next_tokens(kEof);
    parser.expect_tokens(toks, 2, "fingerprint");
    if (toks[0] != "fingerprint") {
      throw ParseError(parser.lineno(), "expected 'fingerprint'");
    }
    try {
      entry.fingerprint = parse_fingerprint_hex(toks[1]);
    } catch (const std::invalid_argument& e) {
      throw ParseError(parser.lineno(), e.what());
    }
  }
  {
    const auto toks = parser.next_tokens(kEof);
    parser.expect_tokens(toks, 2, "strategy");
    if (toks[0] != "strategy") {
      throw ParseError(parser.lineno(), "expected 'strategy'");
    }
    entry.strategy = toks[1];
  }
  {
    const auto toks = parser.next_tokens(kEof);
    parser.expect_tokens(toks, 2, "seed");
    if (toks[0] != "seed") {
      throw ParseError(parser.lineno(), "expected 'seed'");
    }
    entry.seed = parser.parse_u64(toks[1]);
  }
  std::int64_t processors = 0;
  {
    const auto toks = parser.next_tokens(kEof);
    parser.expect_tokens(toks, 2, "processors");
    if (toks[0] != "processors") {
      throw ParseError(parser.lineno(), "expected 'processors'");
    }
    processors = parser.parse_i64(toks[1]);
    if (processors < 1) {
      throw ParseError(parser.lineno(), "processors must be >= 1");
    }
    entry.processors = processors;
  }
  {
    const auto toks = parser.next_tokens(kEof);
    parser.expect_tokens(toks, 3, "budget");
    if (toks[0] != "budget") {
      throw ParseError(parser.lineno(), "expected 'budget'");
    }
    entry.max_iterations = parser.parse_int(toks[1]);
    entry.restarts = parser.parse_int(toks[2]);
  }
  {
    // `detail` is free text: everything after the first space, verbatim.
    const std::string& line = parser.next_line(kEof);
    const std::string prefix = "detail";
    if (line.compare(0, prefix.size(), prefix) != 0) {
      throw ParseError(parser.lineno(), "expected 'detail'");
    }
    entry.detail =
        line.size() > prefix.size() + 1 ? line.substr(prefix.size() + 1) : "";
  }
  std::size_t jobs = 0;
  {
    const auto toks = parser.next_tokens(kEof);
    parser.expect_tokens(toks, 2, "jobs");
    if (toks[0] != "jobs") {
      throw ParseError(parser.lineno(), "expected 'jobs'");
    }
    const std::int64_t n = parser.parse_i64(toks[1]);
    if (n < 0) {
      throw ParseError(parser.lineno(), "negative job count");
    }
    jobs = static_cast<std::size_t>(n);
    if (expected_jobs.has_value() && jobs != *expected_jobs) {
      throw ParseError(parser.lineno(), "entry has " + std::to_string(jobs) +
                                            " job(s), expected " +
                                            std::to_string(*expected_jobs));
    }
  }

  entry.schedule = StaticSchedule(jobs, processors);
  for (;;) {
    const auto toks = parser.next_tokens(kEof);
    if (toks.size() == 1 && toks[0] == "end") {
      parser.reject_trailing_content();
      return entry;
    }
    parser.expect_tokens(toks, 4, "place");
    if (toks[0] != "place") {
      throw ParseError(parser.lineno(), "expected 'place' or 'end'");
    }
    const std::int64_t job = parser.parse_i64(toks[1]);
    const std::int64_t proc = parser.parse_i64(toks[2]);
    if (job < 0 || static_cast<std::size_t>(job) >= jobs) {
      throw ParseError(parser.lineno(), "job index out of range");
    }
    if (proc < 0 || proc >= processors) {
      throw ParseError(parser.lineno(), "processor index out of range");
    }
    Time start;
    try {
      start = Time() + parse_duration(toks[3]);
    } catch (const std::invalid_argument& e) {
      throw ParseError(parser.lineno(), std::string("bad start time: ") + e.what());
    }
    entry.schedule.place(JobId(static_cast<std::size_t>(job)),
                         ProcessorId(static_cast<std::size_t>(proc)), start);
  }
}

ScheduleEntry read_schedule_entry_string(const std::string& text,
                                         std::optional<std::size_t> expected_jobs) {
  std::istringstream in(text);
  return read_schedule_entry(in, expected_jobs);
}

}  // namespace fppn::io
