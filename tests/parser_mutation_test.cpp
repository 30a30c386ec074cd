// Byte-mutation sweep over two hand-written parsers that read untrusted
// text: schedule-cache entries (read back from disk) and the .fppn network
// format (the body of a serve request). Every byte of a valid input is
// replaced, in turn, by each of a few bytes that stress the grammar, and
// the input is truncated at every prefix. Each variant must parse or fail
// with the parser's documented exception; nothing else may escape.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/fig1.hpp"
#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "taskgraph/derivation.hpp"
#include "taskgraph/fingerprint.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace {

/// Digits, signs, the rational slash, separators and a non-ASCII byte.
const std::vector<char> kReplacements = {'0', '9', '-', '+', '/', ' ', '\n', '\xff'};

/// Every single-byte replacement of `text`, then every proper prefix.
std::vector<std::string> mutations(const std::string& text) {
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
  for (std::size_t n = 0; n < text.size(); ++n) {
    out.push_back(text.substr(0, n));
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

  const std::size_t parsed = sweep(
      text, [](const std::string& s) { (void)io::parse_network_string(s); },
      [](const std::exception& e) {
        return dynamic_cast<const io::ParseError*>(&e) != nullptr ||
               dynamic_cast<const std::invalid_argument*>(&e) != nullptr;
      });
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace fppn
