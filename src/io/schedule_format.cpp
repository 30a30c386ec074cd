#include "io/schedule_format.hpp"

#include <sstream>

#include "io/line_parser.hpp"
#include "taskgraph/fingerprint.hpp"

namespace fppn::io {

std::string write_schedule_entry(const ScheduleEntry& entry) {
  std::ostringstream out;
  out << "fppn-schedule v" << kScheduleFormatVersion << '\n';
  out << "fingerprint " << fingerprint_hex(entry.fingerprint) << '\n';
  out << "strategy " << entry.strategy << '\n';
  out << "seed " << entry.seed << '\n';
  out << "processors " << entry.processors << '\n';
  out << "budget " << entry.max_iterations << ' ' << entry.restarts << '\n';
  out << "detail " << entry.detail << '\n';
  out << "jobs " << entry.schedule.job_count() << '\n';
  for (std::size_t i = 0; i < entry.schedule.job_count(); ++i) {
    const JobId id(i);
    if (!entry.schedule.is_placed(id)) {
      continue;  // partial schedules: unplaced jobs simply have no line
    }
    const Placement& p = entry.schedule.placement(id);
    out << "place " << i << ' ' << p.processor.value() << ' '
        << p.start.value().to_string() << '\n';
  }
  out << "end\n";
  return out.str();
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
