// Task-graph fingerprints: sensitivity to every observable field,
// construction-order independence, stability, absence of collisions over
// families of near-identical graphs, the digests pinned for the paper's
// case studies and the seed corpus (cache file names are spelled from
// them), and identity with the byte-serial reference encoding.
#include "taskgraph/fingerprint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "gen/scenario.hpp"
#include "io/text_format.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/reference_fingerprint.hpp"
#include "graph_families.hpp"

#ifndef FPPN_TEST_SOURCE_DIR
#error "FPPN_TEST_SOURCE_DIR must point at the tests/ source directory"
#endif

namespace fppn {
namespace testing {

/// Writes a built graph's jobs in place, past add_job's checks: the
/// extreme-value cases below hold values add_job rejects.
struct TaskGraphProbe {
  static Job& job(TaskGraph& tg, JobId id) { return tg.jobs_.at(id.value()); }
};

}  // namespace testing

namespace {

Job& mutable_job(TaskGraph& tg, std::size_t i) {
  return testing::TaskGraphProbe::job(tg, JobId(i));
}

TaskGraph small_graph() {
  TaskGraph tg(Duration::ms(200));
  for (int i = 0; i < 4; ++i) {
    Job j;
    j.process = ProcessId{static_cast<std::size_t>(i)};
    j.k = 1;
    j.arrival = Time::ms(0);
    j.deadline = Time::ms(200);
    j.wcet = Duration::ms(25);
    j.name = "J" + std::to_string(i);
    tg.add_job(j);
  }
  tg.add_edge(JobId(0), JobId(1));
  tg.add_edge(JobId(1), JobId(2));
  tg.add_edge(JobId(0), JobId(3));
  return tg;
}

TEST(Fingerprint, StableAcrossCalls) {
  const TaskGraph tg = small_graph();
  EXPECT_EQ(fingerprint(tg), fingerprint(tg));
  EXPECT_EQ(fingerprint(small_graph()), fingerprint(tg));
}

TEST(Fingerprint, DerivedGraphIsStable) {
  const auto app = apps::build_fig1();
  const auto a = derive_task_graph(app.net, app.fig3_wcets());
  const auto b = derive_task_graph(app.net, app.fig3_wcets());
  EXPECT_EQ(fingerprint(a.graph), fingerprint(b.graph));
}

TEST(Fingerprint, SensitiveToEveryJobField) {
  const std::uint64_t base = fingerprint(small_graph());

  {
    TaskGraph tg = small_graph();
    mutable_job(tg, 2).wcet = Duration::ms(26);
    EXPECT_NE(fingerprint(tg), base) << "wcet change not detected";
  }
  {
    TaskGraph tg = small_graph();
    mutable_job(tg, 2).deadline = Time::ms(199);
    EXPECT_NE(fingerprint(tg), base) << "deadline change not detected";
  }
  {
    TaskGraph tg = small_graph();
    mutable_job(tg, 2).arrival = Time::ms(1);
    EXPECT_NE(fingerprint(tg), base) << "arrival change not detected";
  }
  {
    TaskGraph tg = small_graph();
    mutable_job(tg, 2).process = ProcessId{9};
    EXPECT_NE(fingerprint(tg), base) << "process change not detected";
  }
  {
    TaskGraph tg = small_graph();
    mutable_job(tg, 2).k = 2;
    EXPECT_NE(fingerprint(tg), base) << "invocation index change not detected";
  }
  {
    TaskGraph tg = small_graph();
    mutable_job(tg, 2).is_server = true;
    EXPECT_NE(fingerprint(tg), base) << "server flag change not detected";
  }
  {
    TaskGraph tg = small_graph();
    mutable_job(tg, 2).subset = 1;
    EXPECT_NE(fingerprint(tg), base) << "subset change not detected";
  }
  {
    TaskGraph tg = small_graph();
    mutable_job(tg, 2).name = "renamed";
    EXPECT_NE(fingerprint(tg), base) << "name change not detected";
  }
  {
    TaskGraph tg = small_graph();
    tg.set_hyperperiod(Duration::ms(400));
    EXPECT_NE(fingerprint(tg), base) << "hyperperiod change not detected";
  }
}

TEST(Fingerprint, SensitiveToEdges) {
  const std::uint64_t base = fingerprint(small_graph());
  {
    TaskGraph tg = small_graph();
    tg.add_edge(JobId(2), JobId(3));
    EXPECT_NE(fingerprint(tg), base) << "added edge not detected";
  }
  {
    TaskGraph tg = small_graph();
    tg.remove_edge(JobId(0), JobId(3));
    EXPECT_NE(fingerprint(tg), base) << "removed edge not detected";
  }
  {
    // Same endpoints reversed: a genuinely different precedence relation.
    TaskGraph tg = small_graph();
    tg.remove_edge(JobId(0), JobId(3));
    tg.add_edge(JobId(3), JobId(0));
    EXPECT_NE(fingerprint(tg), base) << "edge direction not detected";
  }
}

TEST(Fingerprint, EdgeInsertionOrderIrrelevant) {
  // The same graph built with edges added in a different order must
  // fingerprint identically (the "order-independent" contract).
  TaskGraph a = small_graph();
  TaskGraph b(Duration::ms(200));
  for (int i = 0; i < 4; ++i) {
    b.add_job(a.job(JobId(static_cast<std::size_t>(i))));
  }
  b.add_edge(JobId(0), JobId(3));
  b.add_edge(JobId(1), JobId(2));
  b.add_edge(JobId(0), JobId(1));
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, JobPermutationIsADifferentGraph) {
  // Schedules address jobs by index, so swapping two distinguishable jobs
  // must change the fingerprint even though the job *set* is equal.
  TaskGraph a(Duration::ms(100));
  TaskGraph b(Duration::ms(100));
  Job j0, j1;
  j0.process = ProcessId{0};
  j0.arrival = Time::ms(0);
  j0.deadline = Time::ms(100);
  j0.wcet = Duration::ms(10);
  j0.name = "a";
  j1 = j0;
  j1.process = ProcessId{1};
  j1.name = "b";
  a.add_job(j0);
  a.add_job(j1);
  b.add_job(j1);
  b.add_job(j0);
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, NoCollisionsOverRandomFamily) {
  // 512 random perturbations of one base graph — every WCET bump yields a
  // distinct graph, so all fingerprints must be pairwise distinct.
  std::set<std::uint64_t> seen;
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 512; ++trial) {
    TaskGraph tg = small_graph();
    // Unique WCET vector per trial: trial index encoded in milliseconds.
    mutable_job(tg, 0).wcet = Duration::ms(25 + trial);
    mutable_job(tg, 1).wcet =
        Duration::ratio_ms(1 + static_cast<std::int64_t>(rng() % 1000), 7);
    const bool fresh = seen.insert(fingerprint(tg)).second;
    EXPECT_TRUE(fresh) << "collision at trial " << trial;
  }
}

// ---- The frozen encoding. Every digest below was recorded from the
// byte-serial encoding (testing::reference_fingerprint); a deployed cache
// names its entry files by these values, so none may change.

TEST(FingerprintPinned, PaperCaseStudies) {
  {
    const auto app = apps::build_fms(true);
    const auto derived = derive_task_graph(app.net, app.default_wcets());
    ASSERT_EQ(derived.graph.job_count(), 812u);
    ASSERT_EQ(derived.graph.edge_count(), 1124u);
    EXPECT_EQ(fingerprint(derived.graph), 0x52a443f49f46f7d0ULL);
  }
  {
    const auto app = apps::build_fig1();
    const auto derived = derive_task_graph(app.net, app.fig3_wcets());
    EXPECT_EQ(fingerprint(derived.graph), 0xe11dfad27166df06ULL);
  }
  {
    const auto app = apps::build_fft();
    const auto derived =
        derive_task_graph(app.net, app.uniform_wcets(Duration::ratio_ms(40, 3)));
    EXPECT_EQ(fingerprint(derived.graph), 0x194e3d92a104b5c6ULL);
  }
}

TEST(FingerprintPinned, SeedCorpus) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"diamond-11.fppn", 0x7d7fd1140e3671abULL},
      {"fanout-11.fppn", 0x05c2117b8739a7a1ULL},
      {"fractional-11.fppn", 0x1c0ca257d73e8c51ULL},
      {"multirate-11.fppn", 0x20147d0358434f3bULL},
      {"nearoverflow-11.fppn", 0xcb60c4cd836060c6ULL},
      {"pipeline-11.fppn", 0x1bb9e9cc912587e9ULL},
      {"randomdag-11.fppn", 0x717f5d3ea48ab0c9ULL},
      {"sporadic-11.fppn", 0x9b1964ca8a245144ULL},
  };
  namespace fs = std::filesystem;
  std::set<std::string> seen;
  for (const auto& entry :
       fs::directory_iterator(fs::path(FPPN_TEST_SOURCE_DIR) / "corpus")) {
    if (entry.path().extension() != ".fppn") {
      continue;
    }
    const std::string name = entry.path().filename().string();
    const auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end()) << "no pinned fingerprint for corpus entry " << name;
    std::ifstream in(entry.path());
    const io::ParsedNetwork parsed = io::parse_network(in);
    const auto derived = derive_task_graph(parsed.net, parsed.wcets);
    EXPECT_EQ(fingerprint_hex(fingerprint(derived.graph)), fingerprint_hex(it->second))
        << name;
    seen.insert(name);
  }
  EXPECT_EQ(seen.size(), pinned.size());
}

// ---- Production against the byte-serial oracle.

TEST(FingerprintOracle, EveryGeneratorFamily) {
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      const auto derived = derive_task_graph(s.net, s.wcets);
      ASSERT_EQ(fingerprint(derived.graph), testing::reference_fingerprint(derived.graph))
          << s.name;
    }
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const TaskGraph layered = testing::layered_task_graph(seed);
    ASSERT_EQ(fingerprint(layered), testing::reference_fingerprint(layered)) << seed;
    const TaskGraph edge_case = testing::edge_case_task_graph(seed);
    ASSERT_EQ(fingerprint(edge_case), testing::reference_fingerprint(edge_case)) << seed;
  }
}

/// A chain-plus-skip graph of `jobs` jobs, names of varying length
/// (including empty ones) so lanes run out of name bytes at different
/// points.
TaskGraph hand_built(std::size_t jobs) {
  TaskGraph tg(Duration::ratio_ms(700, 3));
  for (std::size_t i = 0; i < jobs; ++i) {
    Job j;
    j.process = ProcessId{i % 3};
    j.k = static_cast<std::int64_t>(i) + 1;
    j.arrival = Time::ms(static_cast<std::int64_t>(i) * 10);
    j.deadline = Time() + Duration::ratio_ms(static_cast<std::int64_t>(i) * 30 + 100, 3);
    j.wcet = Duration::ratio_ms(static_cast<std::int64_t>(i) + 1, 7);
    j.is_server = i % 2 == 1;
    j.subset = j.is_server ? static_cast<std::int64_t>(i) : 0;
    j.name = std::string(i * 5 % 11, static_cast<char>('a' + i));
    tg.add_job(j);
  }
  for (std::size_t i = 1; i < jobs; ++i) {
    tg.add_edge(JobId(i - 1), JobId(i));
    if (i >= 3) {
      tg.add_edge(JobId(i - 3), JobId(i));
    }
  }
  return tg;
}

TEST(FingerprintOracle, HandBuiltGraphsOfEveryLaneRemainder) {
  for (const std::size_t jobs : {0, 1, 3, 5, 7}) {
    const TaskGraph tg = hand_built(jobs);
    EXPECT_EQ(fingerprint(tg), testing::reference_fingerprint(tg)) << jobs << " jobs";
  }
  // A graph without a hyperperiod or edges at all.
  EXPECT_EQ(fingerprint(TaskGraph()), testing::reference_fingerprint(TaskGraph()));
}

TEST(FingerprintOracle, NamesOfUnequalLengths) {
  const std::vector<std::vector<std::string>> name_sets = {
      {"", "", "", ""},
      {"", "a", "", "abcdefghijklmnopqrstuvwxyz"},
      {"FilterA[1]", "DopplerConfig[32]", "x", ""},
      {std::string(300, 'q'), "", std::string("\xff\x00\x80", 3), "B"},
      {"one", "two", "three", "four", "fifteen chars!!", "sixteen chars!!!"},
  };
  for (const auto& names : name_sets) {
    TaskGraph tg = hand_built(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      mutable_job(tg, i).name = names[i];
    }
    EXPECT_EQ(fingerprint(tg), testing::reference_fingerprint(tg)) << names.size();
  }
  // Embedded NUL bytes are name bytes too.
  TaskGraph tg = hand_built(2);
  mutable_job(tg, 0).name = std::string("a\0b", 3);
  mutable_job(tg, 1).name = std::string("a\0c", 3);
  EXPECT_EQ(fingerprint(tg), testing::reference_fingerprint(tg));
  TaskGraph other = tg;
  mutable_job(other, 1).name = std::string("a\0b", 3);
  EXPECT_NE(fingerprint(tg), fingerprint(other));
}

TEST(FingerprintOracle, ExtremeFieldValues) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::size_t jobs : {1, 4, 5}) {
    TaskGraph tg = hand_built(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      Job& j = mutable_job(tg, i);
      const bool low = i % 2 == 0;
      j.k = low ? kMin : kMax;
      j.subset = low ? kMax : kMin;
      j.arrival = Time() + Duration(Rational(low ? kMin : kMax));
      j.deadline = Time() + Duration(Rational(kMax, low ? kMax - 1 : 3));
      j.wcet = Duration(Rational(low ? kMin + 1 : kMax, 5));
      if (i == 0) {
        j.process = ProcessId{};  // the invalid id hashes as ~0
      }
    }
    tg.set_hyperperiod(Duration(Rational(kMax, 2)));
    EXPECT_EQ(fingerprint(tg), testing::reference_fingerprint(tg)) << jobs << " jobs";
  }
}

TEST(Fingerprint, HexRoundTrip) {
  for (const std::uint64_t fp :
       {0ULL, 1ULL, 0xdeadbeefULL, 0xffffffffffffffffULL, 0x0123456789abcdefULL}) {
    const std::string hex = fingerprint_hex(fp);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(parse_fingerprint_hex(hex), fp);
  }
  EXPECT_THROW((void)parse_fingerprint_hex("123"), std::invalid_argument);
  EXPECT_THROW((void)parse_fingerprint_hex("zzzzzzzzzzzzzzzz"), std::invalid_argument);
  EXPECT_THROW((void)parse_fingerprint_hex("0123456789ABCDEF"), std::invalid_argument);
}

}  // namespace
}  // namespace fppn
