// The generator's determinism contract: scenarios are pure functions of
// (family, seed) — byte-identical text and identical task-graph
// fingerprints across repeated invocations and concurrent generation on
// 1/2/8 threads — and distinct seeds yield distinct graphs (the
// seed-epsilon guarantee), across every family.
#include "gen/scenario.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "gen/rng.hpp"
#include "io/text_format.hpp"
#include "taskgraph/fingerprint.hpp"
#include "graph_families.hpp"

namespace fppn::gen {
namespace {

TEST(GenRng, SplitMix64KnownAnswers) {
  // The generator's determinism rests on this exact stream; pin it to the
  // published SplitMix64 vectors for seed 1234567.
  Rng rng(1234567);
  EXPECT_EQ(rng.next(), 6457827717110365317ULL);
  EXPECT_EQ(rng.next(), 3203168211198807973ULL);
  EXPECT_EQ(rng.next(), 9817491932198370423ULL);
}

TEST(GenRng, RangeAndChanceStayInBounds) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.range(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
  Rng rng2(99);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) {
    hits += rng2.chance(1, 2) ? 1 : 0;
  }
  // A coin that never (or always) fires would break family parameter mixing.
  EXPECT_GT(hits, 300);
  EXPECT_LT(hits, 700);
}

TEST(GenScenario, RepeatedInvocationsAreByteIdentical) {
  for (const Family family : all_families()) {
    for (const std::uint64_t seed : {1ULL, 17ULL, 4242ULL}) {
      const Scenario a = make_scenario(family, seed);
      const Scenario b = make_scenario(family, seed);
      EXPECT_EQ(scenario_text(a), scenario_text(b))
          << to_string(family) << " seed " << seed;
      const auto ga = derive_task_graph(a.net, a.wcets);
      const auto gb = derive_task_graph(b.net, b.wcets);
      EXPECT_EQ(fingerprint(ga.graph), fingerprint(gb.graph))
          << to_string(family) << " seed " << seed;
    }
  }
}

TEST(GenScenario, ConcurrentGenerationIsByteIdentical) {
  // The same (family, seed) grid rendered from 1, 2 and 8 threads: any
  // hidden shared state (a global RNG, a locale, an allocation-order
  // dependence in the builder) would show up as a diverging byte.
  const std::size_t kSeeds = 24;
  const auto render_all = [&](int threads) {
    std::vector<std::string> texts(kSeeds * all_families().size());
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t); i < texts.size();
             i += static_cast<std::size_t>(threads)) {
          const Family family = all_families()[i % all_families().size()];
          const std::uint64_t seed = 1 + i / all_families().size();
          texts[i] = scenario_text(make_scenario(family, seed));
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
    return texts;
  };
  const std::vector<std::string> one = render_all(1);
  EXPECT_EQ(render_all(2), one);
  EXPECT_EQ(render_all(8), one);
}

TEST(GenScenario, ThousandSeedsProduceDistinctFingerprints) {
  // The seed-epsilon contract: distinct seeds below 100003 give distinct
  // derived graphs, per family. 1000 seeds x 8 families, no collision.
  for (const Family family : all_families()) {
    std::set<std::uint64_t> prints;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
      const Scenario s = make_scenario(family, seed);
      const auto derived = derive_task_graph(s.net, s.wcets);
      const bool fresh = prints.insert(fingerprint(derived.graph)).second;
      ASSERT_TRUE(fresh) << to_string(family) << " seed " << seed
                         << " collides with an earlier seed";
    }
  }
}

TEST(GenScenario, EveryFamilyBuildsASchedulableNetwork) {
  for (const Family family : all_families()) {
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      const Scenario s = make_scenario(family, seed);
      EXPECT_EQ(s.family, family);
      EXPECT_EQ(s.seed, seed);
      EXPECT_GT(s.net.process_count(), 0u) << s.name;
      std::string why;
      EXPECT_TRUE(s.net.in_schedulable_subclass(&why)) << s.name << ": " << why;
      const auto derived = derive_task_graph(s.net, s.wcets);
      EXPECT_GT(derived.graph.job_count(), 0u) << s.name;
      if (family == Family::kSporadic) {
        EXPECT_FALSE(derived.servers.empty()) << s.name;
      }
    }
  }
}

TEST(GenScenario, FamilyNamesRoundTrip) {
  for (const Family family : all_families()) {
    const auto parsed = parse_family(to_string(family));
    ASSERT_TRUE(parsed.has_value()) << to_string(family);
    EXPECT_EQ(*parsed, family);
  }
  EXPECT_FALSE(parse_family("no-such-family").has_value());
}

TEST(GenScenario, SeedSelectedFamilyRoundRobins) {
  std::set<Family> seen;
  for (std::uint64_t seed = 0; seed < all_families().size(); ++seed) {
    seen.insert(make_scenario(seed).family);
  }
  EXPECT_EQ(seen.size(), all_families().size());
}

TEST(GenScenario, TextParsesBackLosslessly) {
  // scenario_text is the repro wire format: parse -> re-derive must give
  // the identical fingerprint with complete WCETs.
  for (const Family family : all_families()) {
    const Scenario s = make_scenario(family, 7);
    const io::ParsedNetwork parsed = io::parse_network_string(scenario_text(s));
    ASSERT_TRUE(parsed.wcets_complete) << s.name;
    const auto original = derive_task_graph(s.net, s.wcets);
    const auto reparsed = derive_task_graph(parsed.net, parsed.wcets);
    EXPECT_EQ(fingerprint(original.graph), fingerprint(reparsed.graph)) << s.name;
  }
}

TEST(GenScenario, JitteredScriptsAreDeterministicAndAdmissible) {
  for (const std::uint64_t seed : {2ULL, 9ULL, 33ULL}) {
    const Scenario s = make_scenario(Family::kSporadic, seed);
    const Duration h = s.net.hyperperiod();
    // SporadicScript's constructor validates (burst, period) admissibility;
    // an inadmissible draw would throw here.
    const auto a = jittered_scripts(s.net, seed, 2, h);
    const auto b = jittered_scripts(s.net, seed, 2, h);
    EXPECT_FALSE(a.empty()) << s.name;
    ASSERT_EQ(a.size(), b.size()) << s.name;
    for (const auto& [pid, script] : a) {
      const auto it = b.find(pid);
      ASSERT_NE(it, b.end());
      EXPECT_EQ(script.times(), it->second.times()) << s.name;
    }
    // A different seed moves at least one arrival (families with zero
    // sporadic invocations drawn are possible but not for these seeds).
    const auto c = jittered_scripts(s.net, seed + 1, 2, h);
    bool any_diff = false;
    for (const auto& [pid, script] : a) {
      const auto it = c.find(pid);
      any_diff = any_diff || it == c.end() || script.times() != it->second.times();
    }
    EXPECT_TRUE(any_diff) << s.name;
  }
}

TEST(GenGraphFamilies, LayeredAndEdgeCaseGraphsAreDeterministic) {
  for (const std::uint64_t seed : {0ULL, 5ULL, 123ULL}) {
    EXPECT_EQ(fingerprint(testing::layered_task_graph(seed)),
              fingerprint(testing::layered_task_graph(seed)));
    EXPECT_EQ(fingerprint(testing::edge_case_task_graph(seed)),
              fingerprint(testing::edge_case_task_graph(seed)));
    EXPECT_NE(fingerprint(testing::layered_task_graph(seed)),
              fingerprint(testing::layered_task_graph(seed + 1)));
  }
}

TEST(GenGraphFamilies, EdgeCaseVariantsCoverTheAdvertisedShapes) {
  // Variant 0 carries zero-WCET jobs; variant 2 forces the Rational
  // fallback (tick-LCM overflow); variants 1 and 3 are tie storms and
  // trivial/antichain shapes. Spot-check each advertised property.
  bool saw_zero_wcet = false;
  for (std::uint64_t seed = 0; seed < 16; seed += 4) {
    const TaskGraph tg = testing::edge_case_task_graph(seed);
    for (const Job& j : tg.jobs()) {
      saw_zero_wcet = saw_zero_wcet || j.wcet == Duration();
    }
  }
  EXPECT_TRUE(saw_zero_wcet);
  for (std::uint64_t seed = 1; seed < 16; seed += 4) {
    const TaskGraph tg = testing::edge_case_task_graph(seed);
    ASSERT_GE(tg.job_count(), 2u);
    const Job& first = tg.jobs().front();
    for (const Job& j : tg.jobs()) {
      EXPECT_EQ(j.arrival, first.arrival);
      EXPECT_EQ(j.wcet, first.wcet);
      EXPECT_EQ(j.deadline, first.deadline);
    }
  }
}

}  // namespace
}  // namespace fppn::gen
