// The textual FPPN format: parsing, semantic validation, round-tripping,
// and precise error reporting.
#include "io/text_format.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "gen/scenario.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/fingerprint.hpp"

namespace fppn::io {
namespace {

const char* kSmall = R"(
# comment line
process A periodic period=100 deadline=100 wcet=10
process B periodic period=200 deadline=200 wcet=20   # trailing comment
process S sporadic burst=2 period=500 deadline=600 wcet=5
channel fifo stream A -> B
channel blackboard cfg S -> B
input  in  -> A
output out <- B
priority A > B
priority B > S
)";

TEST(TextFormat, ParsesSmallNetwork) {
  const ParsedNetwork parsed = parse_network_string(kSmall);
  EXPECT_EQ(parsed.net.process_count(), 3u);
  EXPECT_EQ(parsed.net.channel_count(), 4u);
  EXPECT_TRUE(parsed.wcets_complete);
  const ProcessId a = *parsed.net.find_process("A");
  const ProcessId s = *parsed.net.find_process("S");
  EXPECT_EQ(parsed.net.process(a).event.period, Duration::ms(100));
  EXPECT_EQ(parsed.net.process(s).event.kind, EventKind::kSporadic);
  EXPECT_EQ(parsed.net.process(s).event.burst, 2);
  EXPECT_EQ(parsed.wcets.at(a), Duration::ms(10));
  EXPECT_TRUE(parsed.net.in_schedulable_subclass());
}

TEST(TextFormat, RationalDurations) {
  EXPECT_EQ(parse_duration("200"), Duration::ms(200));
  EXPECT_EQ(parse_duration("40/3"), Duration::ratio_ms(40, 3));
  EXPECT_THROW((void)parse_duration("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration("1/0"), std::exception);
  EXPECT_THROW((void)parse_duration("4/"), std::invalid_argument);
}

TEST(TextFormat, RoundTripPreservesStructure) {
  const ParsedNetwork first = parse_network_string(kSmall);
  const std::string emitted = write_network(first.net, first.wcets);
  const ParsedNetwork second = parse_network_string(emitted);
  EXPECT_EQ(second.net.process_count(), first.net.process_count());
  EXPECT_EQ(second.net.channel_count(), first.net.channel_count());
  EXPECT_EQ(second.net.priority_graph().edge_count(),
            first.net.priority_graph().edge_count());
  for (std::size_t i = 0; i < first.net.process_count(); ++i) {
    const ProcessDecl& p1 = first.net.process(ProcessId{i});
    const auto p2 = second.net.find_process(p1.name);
    ASSERT_TRUE(p2.has_value()) << p1.name;
    EXPECT_EQ(second.net.process(*p2).event.period, p1.event.period);
    EXPECT_EQ(second.net.process(*p2).event.deadline, p1.event.deadline);
    EXPECT_EQ(second.net.process(*p2).event.burst, p1.event.burst);
    EXPECT_EQ(second.net.process(*p2).event.kind, p1.event.kind);
  }
  EXPECT_EQ(second.wcets.size(), first.wcets.size());
}

TEST(TextFormat, Fig1FileMatchesBuiltInApp) {
  // The shipped examples/fig1.fppn must derive the same task graph shape
  // as the C++-built network.
  std::ifstream in("examples/fig1.fppn");
  if (!in) {
    in.open("../examples/fig1.fppn");
  }
  if (!in) {
    GTEST_SKIP() << "fig1.fppn not found from test cwd";
  }
  const ParsedNetwork parsed = parse_network(in);
  EXPECT_EQ(parsed.net.process_count(), 7u);
  const auto derived = derive_task_graph(parsed.net, parsed.wcets);
  EXPECT_EQ(derived.graph.job_count(), 10u);
  EXPECT_EQ(derived.hyperperiod, Duration::ms(200));
  // Max-density window [0, 75): InputA, CoefB x2, FilterA[1], FilterB[1].
  EXPECT_EQ(task_graph_load(derived.graph).load, Rational(5, 3));
}

struct BadCase {
  const char* name;
  const char* text;
  std::size_t error_line;
};

// Without this, gtest prints the raw bytes of the two pointers, and the test
// names that CTest discovers change with every address-space layout.
void PrintTo(const BadCase& bad, std::ostream* os) { *os << bad.name; }

class TextFormatErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(TextFormatErrors, ReportsLineNumber) {
  const BadCase& bad = GetParam();
  try {
    (void)parse_network_string(bad.text);
    FAIL() << bad.name << ": expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), bad.error_line) << bad.name << ": " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TextFormatErrors,
    ::testing::Values(
        BadCase{"unknown-statement", "flurb A\n", 1},
        BadCase{"missing-kind", "process A\n", 1},
        BadCase{"bad-kind",
                "process A quasiperiodic period=1 deadline=1\n", 1},
        BadCase{"missing-period", "\nprocess A periodic deadline=1\n", 2},
        BadCase{"bad-kv", "process A periodic period=1 deadline=1 x\n", 1},
        BadCase{"sporadic-needs-burst",
                "process A sporadic period=1 deadline=1\n", 1},
        BadCase{"unknown-process-in-channel",
                "process A periodic period=1 deadline=1\nchannel fifo c A -> B\n",
                2},
        BadCase{"bad-channel-kind",
                "process A periodic period=1 deadline=1\n"
                "process B periodic period=1 deadline=1\n"
                "channel pipe c A -> B\n",
                3},
        BadCase{"bad-arrow", "process A periodic period=1 deadline=1\n"
                             "input x <- A\n",
                2},
        BadCase{"bad-priority", "process A periodic period=1 deadline=1\n"
                                "priority A < A\n",
                2},
        BadCase{"duplicate-process",
                "process A periodic period=1 deadline=1\n"
                "process A periodic period=1 deadline=1\n",
                2},
        BadCase{"zero-period", "process A periodic period=0 deadline=1\n", 1},
        BadCase{"zero-denominator", "process A periodic period=1/0 deadline=1\n", 1},
        // Values outside int are errors, not wrapped (4294967298 = 2^32 + 2).
        BadCase{"burst-above-int",
                "process A sporadic burst=4294967298 period=1 deadline=1\n", 1},
        BadCase{"burst-below-int",
                "process A sporadic burst=-2147483649 period=1 deadline=1\n", 1},
        BadCase{"capacity-above-int",
                "process A periodic period=1 deadline=1\n"
                "process B periodic period=1 deadline=1\n"
                "priority A > B\n"
                "channel fifo c A -> B capacity=4294967298\n",
                4}),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(TextFormat, SemanticValidationStillApplies) {
  // Channel without priority: caught by the builder at build() time.
  const char* text =
      "process A periodic period=1 deadline=1\n"
      "process B periodic period=1 deadline=1\n"
      "channel fifo c A -> B\n";
  EXPECT_THROW((void)parse_network_string(text), std::invalid_argument);
}

TEST(TextFormat, BufferedChannelRoundTrip) {
  const char* text =
      "process w periodic period=100 deadline=300\n"
      "process r periodic period=100 deadline=300\n"
      "channel fifo q w -> r capacity=3\n";
  const ParsedNetwork parsed = parse_network_string(text);
  const ChannelId q = *parsed.net.find_channel("q");
  EXPECT_TRUE(parsed.net.channel(q).is_buffered());
  EXPECT_EQ(parsed.net.channel(q).capacity, 3);
  // The implied writer -> reader priority came with the buffered channel.
  EXPECT_TRUE(parsed.net.has_priority(*parsed.net.find_process("w"),
                                      *parsed.net.find_process("r")));
  const ParsedNetwork again = parse_network_string(write_network(parsed.net));
  EXPECT_EQ(again.net.channel(*again.net.find_channel("q")).capacity, 3);
}

TEST(TextFormat, BufferedBlackboardRejected) {
  const char* text =
      "process w periodic period=100 deadline=100\n"
      "process r periodic period=100 deadline=100\n"
      "channel blackboard b w -> r capacity=2\n";
  EXPECT_THROW((void)parse_network_string(text), ParseError);
}

TEST(TextFormat, BadCapacityKeyRejected) {
  const char* text =
      "process w periodic period=100 deadline=100\n"
      "process r periodic period=100 deadline=100\n"
      "channel fifo q w -> r depth=2\n";
  EXPECT_THROW((void)parse_network_string(text), ParseError);
}

/// write -> parse -> re-derive must reproduce the exact task graph: the
/// writer is the format of fuzz repros and `fppn_tool roundtrip`, so
/// "close enough" round-trips are format bugs.
void expect_lossless_roundtrip(const Network& net, const WcetMap& wcets,
                               const std::string& context) {
  const std::string emitted = write_network(net, wcets);
  const ParsedNetwork parsed = parse_network_string(emitted);
  ASSERT_TRUE(parsed.wcets_complete) << context;
  const auto original = derive_task_graph(net, wcets);
  const auto reparsed = derive_task_graph(parsed.net, parsed.wcets);
  EXPECT_EQ(fingerprint(original.graph), fingerprint(reparsed.graph)) << context;
  EXPECT_EQ(original.hyperperiod, reparsed.hyperperiod) << context;
  // A second write of the reparsed network is byte-identical: the format
  // has one canonical rendering per network.
  EXPECT_EQ(write_network(parsed.net, parsed.wcets), emitted) << context;
}

TEST(TextFormat, PaperAppsRoundTripLosslessly) {
  const auto fig1 = apps::build_fig1();
  expect_lossless_roundtrip(fig1.net, fig1.fig3_wcets(), "fig1");
  const auto fft = apps::build_fft();
  expect_lossless_roundtrip(fft.net, fft.uniform_wcets(Duration::ms(10)), "fft");
  const auto fms = apps::build_fms();
  expect_lossless_roundtrip(fms.net, fms.default_wcets(), "fms");
}

TEST(TextFormat, GeneratedScenariosRoundTripLosslessly) {
  // 200 scenarios across all eight families — including fractional
  // periods/WCETs and near-overflow denominators, where a writer that
  // rendered decimals instead of exact rationals would silently corrupt
  // the graph.
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      expect_lossless_roundtrip(s.net, s.wcets, s.name);
    }
  }
}

TEST(TextFormat, WriterEmitsStrictGrammar) {
  // The writer must stay inside the strict grammar the parser enforces:
  // no '+'-prefixed integers, no trailing garbage, newline-terminated.
  for (const gen::Family family : gen::all_families()) {
    const gen::Scenario s = gen::make_scenario(family, 9);
    const std::string emitted = write_network(s.net, s.wcets);
    EXPECT_EQ(emitted.find('+'), std::string::npos) << s.name;
    ASSERT_FALSE(emitted.empty()) << s.name;
    EXPECT_EQ(emitted.back(), '\n') << s.name;
    // Appending garbage must be a parse error, not silently ignored.
    EXPECT_THROW((void)parse_network_string(emitted + "flurb\n"), ParseError)
        << s.name;
  }
}

TEST(TextFormat, AutoRmStatement) {
  const char* text =
      "process fast periodic period=100 deadline=100\n"
      "process slow periodic period=400 deadline=400\n"
      "channel fifo c slow -> fast\n"
      "priority auto-rm\n";
  const ParsedNetwork parsed = parse_network_string(text);
  const ProcessId fast = *parsed.net.find_process("fast");
  const ProcessId slow = *parsed.net.find_process("slow");
  EXPECT_TRUE(parsed.net.has_priority(fast, slow));
  EXPECT_FALSE(parsed.wcets_complete);
}

}  // namespace
}  // namespace fppn::io
