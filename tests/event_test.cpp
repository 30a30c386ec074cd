#include "fppn/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>

#include "apps/fms.hpp"
#include "fppn/network.hpp"

namespace fppn {
namespace {

TEST(EventSpec, ValidationRejectsBadValues) {
  EventSpec s{EventKind::kPeriodic, 0, Duration::ms(10), Duration::ms(10)};
  EXPECT_THROW(s.validate(), std::invalid_argument);  // burst < 1
  s = {EventKind::kPeriodic, 1, Duration::zero(), Duration::ms(10)};
  EXPECT_THROW(s.validate(), std::invalid_argument);  // period <= 0
  s = {EventKind::kPeriodic, 1, Duration::ms(10), Duration::zero()};
  EXPECT_THROW(s.validate(), std::invalid_argument);  // deadline <= 0
  s = {EventKind::kSporadic, 2, Duration::ms(700), Duration::ms(700)};
  EXPECT_NO_THROW(s.validate());
}

TEST(SporadicConstraint, BurstOneIsMinimumSeparation) {
  // m = 1: consecutive events at least T apart.
  EXPECT_TRUE(satisfies_sporadic_constraint(
      {Time::ms(0), Time::ms(100), Time::ms(200)}, 1, Duration::ms(100)));
  EXPECT_FALSE(satisfies_sporadic_constraint(
      {Time::ms(0), Time::ms(99)}, 1, Duration::ms(100)));
}

TEST(SporadicConstraint, BurstTwoAllowsPairs) {
  // 2 per 700 (the CoefB generator): a pair at the same instant is fine,
  // a third event within 700 of the first is not.
  EXPECT_TRUE(satisfies_sporadic_constraint({Time::ms(0), Time::ms(0)}, 2,
                                            Duration::ms(700)));
  EXPECT_TRUE(satisfies_sporadic_constraint(
      {Time::ms(0), Time::ms(10), Time::ms(700)}, 2, Duration::ms(700)));
  EXPECT_FALSE(satisfies_sporadic_constraint(
      {Time::ms(0), Time::ms(10), Time::ms(699)}, 2, Duration::ms(700)));
}

TEST(SporadicConstraint, ExactWindowBoundaryAdmitted) {
  // Half-closed windows: events T apart never violate.
  EXPECT_TRUE(satisfies_sporadic_constraint({Time::ms(0), Time::ms(100)}, 1,
                                            Duration::ms(100)));
}

TEST(SporadicScript, ConstructionSortsAndValidates) {
  const SporadicScript s({Time::ms(300), Time::ms(0)}, 1, Duration::ms(100));
  ASSERT_EQ(s.times().size(), 2u);
  EXPECT_EQ(s.times()[0], Time::ms(0));
  EXPECT_EQ(s.times()[1], Time::ms(300));
}

TEST(SporadicScript, RejectsViolatingScript) {
  EXPECT_THROW(SporadicScript({Time::ms(0), Time::ms(1)}, 1, Duration::ms(100)),
               std::invalid_argument);
  EXPECT_THROW(SporadicScript({Time::ms(-5)}, 1, Duration::ms(100)),
               std::invalid_argument);
}

TEST(SporadicScript, RandomScriptsAreAdmissibleAndDeterministic) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const SporadicScript s =
        SporadicScript::random(2, Duration::ms(200), Time::ms(2000), seed);
    EXPECT_TRUE(satisfies_sporadic_constraint(s.times(), 2, Duration::ms(200)))
        << "seed " << seed;
    for (const Time& t : s.times()) {
      EXPECT_GE(t, Time::ms(0));
      EXPECT_LT(t, Time::ms(2000));
    }
    // Same seed, same script.
    const SporadicScript again =
        SporadicScript::random(2, Duration::ms(200), Time::ms(2000), seed);
    EXPECT_EQ(s.times(), again.times());
  }
}

TEST(InvocationPlan, GroupsByTimeSortedWithBursts) {
  InvocationPlan plan;
  plan.add(Time::ms(200), ProcessId{1});
  plan.add(Time::ms(0), ProcessId{0}, 2);
  plan.add(Time::ms(0), ProcessId{1});
  // The run at t=0 holds the burst of 2 plus one more, sorted by id.
  const std::vector<Invocation> want = {{Time::ms(0), ProcessId{0}},
                                        {Time::ms(0), ProcessId{0}},
                                        {Time::ms(0), ProcessId{1}},
                                        {Time::ms(200), ProcessId{1}}};
  EXPECT_EQ(plan.sorted_slots(), want);
  EXPECT_EQ(plan.invocation_count(), 4u);
}

TEST(InvocationPlan, RejectsBadInput) {
  InvocationPlan plan;
  EXPECT_THROW(plan.add(Time(Rational(-1)), ProcessId{0}), std::invalid_argument);
  EXPECT_THROW(plan.add(Time::ms(0), ProcessId{0}, 0), std::invalid_argument);
}

TEST(InvocationPlan, BuildFromNetworkPeriodics) {
  NetworkBuilder b;
  const ProcessId fast =
      b.periodic("fast", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId burst = b.multi_periodic("burst", 3, Duration::ms(200),
                                           Duration::ms(200), no_op_behavior());
  const Network net = std::move(b).build();
  const InvocationPlan plan = InvocationPlan::build(net, Time::ms(400));
  // fast: 0,100,200,300 (4) ; burst: 3 at 0 and 3 at 200 (6).
  EXPECT_EQ(plan.invocation_count(), 10u);
  const std::vector<Invocation> slots = plan.sorted_slots();
  ASSERT_EQ(slots.size(), 10u);
  // 3x burst + fast at t=0, then one run per later instant.
  const std::vector<Invocation> first_run = {{Time::ms(0), fast},
                                             {Time::ms(0), burst},
                                             {Time::ms(0), burst},
                                             {Time::ms(0), burst}};
  EXPECT_EQ(std::vector<Invocation>(slots.begin(), slots.begin() + 4), first_run);
  EXPECT_EQ(slots[4], (Invocation{Time::ms(100), fast}));
  std::size_t instants = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    instants += i == 0 || slots[i].time != slots[i - 1].time ? 1 : 0;
  }
  EXPECT_EQ(instants, 4u);
}

TEST(InvocationPlan, BuildUsesSporadicScripts) {
  NetworkBuilder b;
  const ProcessId user =
      b.periodic("user", Duration::ms(100), Duration::ms(100), no_op_behavior());
  const ProcessId spor = b.sporadic("spor", 1, Duration::ms(150), Duration::ms(300),
                                    no_op_behavior());
  b.blackboard("cfg", spor, user);
  b.priority(user, spor);
  const Network net = std::move(b).build();
  std::map<ProcessId, SporadicScript> scripts;
  scripts.emplace(spor,
                  SporadicScript({Time::ms(30), Time::ms(390)}, 1, Duration::ms(150)));
  const InvocationPlan plan = InvocationPlan::build(net, Time::ms(400), scripts);
  // user: 4 invocations; sporadic: 2 (one at 390 < 400).
  EXPECT_EQ(plan.invocation_count(), 6u);
  // Without a script the sporadic never fires.
  const InvocationPlan quiet = InvocationPlan::build(net, Time::ms(400));
  EXPECT_EQ(quiet.invocation_count(), 4u);
}

/// One add() call: `count` invocations of `process` at `time`.
struct Add {
  Time time;
  ProcessId process;
  int count = 1;
};

/// The grouping kept next to the flat plan: a map from instant to the
/// invoked processes, each multiset sorted by id, bursts as repeats,
/// flattened in instant order.
std::vector<Invocation> map_grouping(const std::vector<Add>& adds) {
  std::map<Time, std::vector<ProcessId>> by_time;
  for (const Add& a : adds) {
    by_time[a.time].insert(by_time[a.time].end(), static_cast<std::size_t>(a.count),
                           a.process);
  }
  std::vector<Invocation> out;
  for (auto& [t, procs] : by_time) {
    std::sort(procs.begin(), procs.end());
    for (const ProcessId p : procs) {
      out.push_back({t, p});
    }
  }
  return out;
}

std::size_t count_of(const std::vector<Add>& adds) {
  std::size_t total = 0;
  for (const Add& a : adds) {
    total += static_cast<std::size_t>(a.count);
  }
  return total;
}

void expect_same_slots(const InvocationPlan& plan, const std::vector<Add>& adds) {
  const std::vector<Invocation> want = map_grouping(adds);
  const std::vector<Invocation> got = plan.sorted_slots();
  EXPECT_EQ(plan.invocation_count(), count_of(adds));
  EXPECT_EQ(plan.empty(), adds.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << "slot " << i;
    EXPECT_EQ(got[i].process, want[i].process) << "slot " << i;
  }
}

TEST(InvocationPlan, FlatGroupingMatchesMapGrouping) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const std::size_t adds_n = rng() % 120;
    std::vector<Add> adds;
    for (std::size_t i = 0; i < adds_n; ++i) {
      // Few distinct instants, some fractional, so instants collect repeats.
      const std::int64_t num = static_cast<std::int64_t>(rng() % 25);
      const std::int64_t den = rng() % 4 == 0 ? 3 : 1;
      adds.push_back({Time(Rational(num, den)), ProcessId{rng() % 14},
                      1 + static_cast<int>(rng() % 3)});
    }
    // Even seeds add in (time, process) order, odd seeds out of order.
    if (seed % 2 == 0) {
      std::sort(adds.begin(), adds.end(), [](const Add& a, const Add& b) {
        return std::tie(a.time, a.process) < std::tie(b.time, b.process);
      });
    }
    InvocationPlan plan;
    for (const Add& a : adds) {
      plan.add(a.time, a.process, a.count);
    }
    expect_same_slots(plan, adds);
    expect_same_slots(plan, adds);  // sorted_slots() leaves the plan as it was
  }

  // build() on the FMS with random sporadic commands; the add sequence is
  // the one build() documents: periodic bursts at every multiple of the
  // period, sporadic script times below the horizon.
  const apps::FmsApp fms = apps::build_fms(true);
  const Time horizon = Time::ms(25000);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("fms seed " + std::to_string(seed));
    const auto commands = fms.random_commands(Time::ms(30000), seed);
    std::vector<Add> adds;
    for (std::size_t i = 0; i < fms.net.process_count(); ++i) {
      const ProcessId p{i};
      const EventSpec& spec = fms.net.process(p).event;
      if (spec.kind == EventKind::kPeriodic) {
        for (Time t; t < horizon; t += spec.period) {
          adds.push_back({t, p, spec.burst});
        }
      } else if (const auto it = commands.find(p); it != commands.end()) {
        for (const Time& t : it->second.times()) {
          if (t < horizon) {
            adds.push_back({t, p, 1});
          }
        }
      }
    }
    expect_same_slots(InvocationPlan::build(fms.net, horizon, commands), adds);
  }
}

TEST(InvocationPlan, AnyAddOrderComesOutInTimeThenProcessOrder) {
  // build()'s slots are one time-ordered run per process. The same slots
  // added in other orders — reversed (every run one slot long), shuffled,
  // and two processes' runs interleaved slot by slot — must come out
  // identical to build()'s.
  const apps::FmsApp fms = apps::build_fms(true);
  const Time horizon = Time::ms(25000);
  const auto commands = fms.random_commands(Time::ms(30000), 3);
  const std::vector<Invocation> want =
      InvocationPlan::build(fms.net, horizon, commands).sorted_slots();
  ASSERT_GT(want.size(), 100u);
  for (std::size_t k = 1; k < want.size(); ++k) {
    ASSERT_TRUE(std::tie(want[k - 1].time, want[k - 1].process) <=
                std::tie(want[k].time, want[k].process))
        << "slot " << k;
  }
  const auto sorted_after_adding = [](const std::vector<Invocation>& order) {
    InvocationPlan plan;
    for (const Invocation& slot : order) {
      plan.add(slot.time, slot.process);
    }
    return plan.sorted_slots();
  };
  EXPECT_EQ(sorted_after_adding({want.rbegin(), want.rend()}), want);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<Invocation> shuffled = want;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(seed));
    EXPECT_EQ(sorted_after_adding(shuffled), want) << "seed " << seed;
  }

  // Two descending runs of one process each, interleaved: p1 at 9, p0 at
  // 9, p1 at 8, ... — no two neighbours in (time, process) order.
  std::vector<Invocation> interleaved;
  std::vector<Invocation> expected;
  for (std::int64_t ms = 9; ms >= 0; --ms) {
    interleaved.push_back({Time::ms(ms), ProcessId{1}});
    interleaved.push_back({Time::ms(ms), ProcessId{0}});
    expected.insert(expected.begin(), {{Time::ms(ms), ProcessId{0}},
                                       {Time::ms(ms), ProcessId{1}}});
  }
  EXPECT_EQ(sorted_after_adding(interleaved), expected);
  EXPECT_TRUE(sorted_after_adding({}).empty());
}

TEST(EventKind, ToString) {
  EXPECT_EQ(to_string(EventKind::kPeriodic), "periodic");
  EXPECT_EQ(to_string(EventKind::kSporadic), "sporadic");
}

}  // namespace
}  // namespace fppn
