// Byte-mutation sweep over two hand-written parsers that read untrusted
// text: schedule-cache entries (read back from disk) and the .fppn
// network format (the body of a serve request). Every byte
// of a valid input is replaced, in turn, by each of a few bytes that
// stress the grammar, and the input is truncated at every prefix. Each
// variant must parse or fail with the parser's documented exception;
// nothing else may escape. Every network variant that parses is derived
// too: it must derive or be rejected with std::invalid_argument, and a
// derived graph must equal the reference derivation's. Last, the serve
// request path end to end: every single-byte replacement, deletion and
// insertion of a small solve request and of `stats` is handed to
// SolveService::handle, which must answer each with a status line.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/fig1.hpp"
#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "taskgraph/derivation.hpp"
#include "taskgraph/fingerprint.hpp"
#include "testing/list_scheduler.hpp"
#include "testing/reference_derivation.hpp"

namespace fppn {
namespace {

/// Digits, signs, the rational slash, separators and a non-ASCII byte.
const std::vector<char> kReplacements = {'0', '9', '-', '+', '/', ' ', '\n', '\xff'};

/// Every single-byte replacement of `text`.
std::vector<std::string> replacements(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (const char c : kReplacements) {
      if (text[i] != c) {
        std::string mutated = text;
        mutated[i] = c;
        out.push_back(std::move(mutated));
      }
    }
  }
  return out;
}

/// Every single-byte replacement of `text`, then every proper prefix.
std::vector<std::string> mutations(const std::string& text) {
  std::vector<std::string> out = replacements(text);
  for (std::size_t n = 0; n < text.size(); ++n) {
    out.push_back(text.substr(0, n));
  }
  return out;
}

/// Every single-byte replacement, deletion and insertion of `text`.
std::vector<std::string> byte_edits(const std::string& text) {
  std::vector<std::string> out = replacements(text);
  for (std::size_t i = 0; i < text.size(); ++i) {
    out.push_back(text.substr(0, i) + text.substr(i + 1));
  }
  for (std::size_t i = 0; i <= text.size(); ++i) {
    for (const char c : kReplacements) {
      out.push_back(text.substr(0, i) + c + text.substr(i));
    }
  }
  return out;
}

/// Runs `parse` on every mutation of `text`; `documented` is true for an
/// exception the parser may throw. Returns the number of variants parsed.
template <class Parse, class Documented>
std::size_t sweep(const std::string& text, Parse parse, Documented documented) {
  std::size_t parsed = 0;
  for (const std::string& input : mutations(text)) {
    try {
      parse(input);
      ++parsed;
    } catch (const std::exception& e) {
      if (!documented(e)) {
        ADD_FAILURE() << "undocumented exception: " << e.what() << "\ninput:\n" << input;
      }
    }
  }
  return parsed;
}

/// `text` without the spaces and newlines around it.
std::string strip(const std::string& text) {
  const std::size_t first = text.find_first_not_of(" \n");
  if (first == std::string::npos) {
    return {};
  }
  return text.substr(first, text.find_last_not_of(" \n") - first + 1);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ParserMutation, ScheduleEntrySurvivesEveryByteMutation) {
  const auto app = apps::build_fig1();
  const TaskGraph tg = derive_task_graph(app.net, app.fig3_wcets()).graph;
  io::ScheduleEntry entry;
  entry.fingerprint = fingerprint(tg);
  entry.strategy = "alap-edf";
  entry.seed = 1;
  entry.processors = 2;
  entry.max_iterations = 2000;
  entry.restarts = 2;
  entry.detail = "list schedule, SP heuristic alap-edf";
  entry.schedule = testing::list_schedule(tg, PriorityHeuristic::kAlapEdf, 2);
  const std::string text = io::write_schedule_entry(entry);
  ASSERT_NO_THROW((void)io::read_schedule_entry_string(text));

  const auto is_parse_error = [](const std::exception& e) {
    return dynamic_cast<const io::ParseError*>(&e) != nullptr;
  };
  const std::size_t parsed = sweep(
      text, [](const std::string& s) { (void)io::read_schedule_entry_string(s); },
      is_parse_error);
  EXPECT_GT(parsed, 0u);  // the sweep reached past the header
  // With the query graph's job count, a mutated count is rejected too.
  sweep(
      text,
      [&](const std::string& s) { (void)io::read_schedule_entry_string(s, tg.job_count()); },
      is_parse_error);
}

TEST(ParserMutation, NetworkTextSurvivesEveryByteMutation) {
  const std::string text = slurp(std::string(FPPN_TEST_SOURCE_DIR) + "/../examples/fig1.fppn");
  ASSERT_FALSE(text.empty());
  ASSERT_NO_THROW((void)io::parse_network_string(text));

  std::size_t derived = 0;
  const std::size_t parsed = sweep(
      text,
      [&](const std::string& s) {
        const io::ParsedNetwork net = io::parse_network_string(s);
        std::optional<DerivedTaskGraph> got;
        try {
          got = derive_task_graph(net.net, net.wcets);
        } catch (const std::invalid_argument&) {
          return;  // the documented rejection
        }
        ++derived;
        std::optional<DerivedTaskGraph> want;
        try {
          want = testing::reference_derive_task_graph(net.net, net.wcets);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "only the reference threw: " << e.what() << "\ninput:\n" << s;
          return;
        }
        EXPECT_EQ(testing::derivation_difference(*got, *want), "") << "input:\n" << s;
      },
      [](const std::exception& e) {
        return dynamic_cast<const io::ParseError*>(&e) != nullptr ||
               dynamic_cast<const std::invalid_argument*>(&e) != nullptr;
      });
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(derived, 0u);  // the sweep reached the derivation
}

TEST(ParserMutation, ServiceRequestSurvivesEveryByteMutation) {
  // Small periods keep a mutated hyperperiod small: an inserted digit
  // makes at most a few hundred jobs.
  const std::string request =
      "process A periodic period=2 deadline=2 wcet=1\n"
      "process B periodic period=4 deadline=4 wcet=1\n"
      "process C sporadic burst=1 period=4 deadline=4 wcet=1\n"
      "channel fifo ab A -> B\n"
      "channel blackboard cb C -> B\n"
      "priority A > B\n"
      "priority C > B\n";
  engine::Engine engine;
  engine::ServiceOptions options;  // the quick preset
  options.search_workers = 1;
  engine::SolveService service(engine, options);
  ASSERT_EQ(service.handle(request, 0.0).rfind("fppn-serve ok ", 0), 0u);
  ASSERT_EQ(service.handle("stats", 0.0).rfind("fppn-serve stats ", 0), 0u);

  std::size_t ok = 0;
  std::size_t errors = 0;
  for (const std::string& base : {request, std::string("stats")}) {
    for (const std::string& input : byte_edits(base)) {
      std::string response;
      try {
        response = service.handle(input, 0.0);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "escaped: " << e.what() << "\ninput:\n" << input;
        continue;
      }
      // A variant that only adds whitespace around `stats` is still the
      // stats verb, which has its own status line.
      const bool stats_verb = strip(input) == "stats";
      EXPECT_TRUE(!response.empty() && response.back() == '\n') << "input:\n" << input;
      if (response.rfind("fppn-serve ok", 0) == 0) {
        ++ok;
      } else if (response.rfind("fppn-serve error", 0) == 0) {
        ++errors;
      } else if (!(stats_verb && response.rfind("fppn-serve stats ", 0) == 0)) {
        ADD_FAILURE() << "no status line: " << response << "\ninput:\n" << input;
      }
    }
  }
  EXPECT_GT(ok, 0u);      // some variants still solve
  EXPECT_GT(errors, 0u);  // and some are rejected with an error line
}

}  // namespace
}  // namespace fppn
