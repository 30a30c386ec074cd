// The search's int64 tick paths against their Rational oracles.
//
// TickScoring: StaticSchedule::score_on_ticks (behind finalize_result on
// a search context) returns the identical violation counts, kind by
// kind, and makespan as StaticSchedule::count_violations + makespan on
// every candidate schedule of every built-in strategy, and on perturbed
// copies of them. Hand-built schedules hit each Def. 3.2 kind and each
// boundary, and each fallback (off-grid start, graph without ticks,
// overflowing add) hands the score to the Rational walk.
//
// TickOrders: schedule_priority on the compiled view equals the Rational
// schedule_priority for all four heuristics, and defers to it on graphs
// without ticks, on cyclic graphs and on an overflowing key.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "gen/rng.hpp"
#include "gen/scenario.hpp"
#include "sched/parallel_search.hpp"
#include "sched/priorities.hpp"
#include "sched/registry.hpp"
#include "sched/search_context.hpp"
#include "sched/strategy.hpp"
#include "taskgraph/compiled_graph.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace {

/// The paper's reduced-period FMS (812 jobs) with every process WCET
/// raised by k/10 ms, k in 0..9 drawn from `jitter` (the perfbench
/// variant draw); jitter 0 is the paper graph.
TaskGraph fms_graph(std::uint64_t jitter) {
  const apps::FmsApp app = apps::build_fms(true);
  WcetMap wcets = app.default_wcets();
  if (jitter != 0) {
    gen::Rng rng(jitter);
    for (auto& entry : wcets) {
      entry.second += Duration::ratio_ms(rng.range(0, 9), 10);
    }
  }
  return derive_task_graph(app.net, wcets).graph;
}

struct Case {
  std::string name;
  TaskGraph tg;
  std::int64_t processors;
  int iterations;  ///< local-search budget
};

/// The paper FMS, 8 jittered variants, fig1 and FFT on 2 processors, and
/// every generator family on seeds 1-6 at M = 1-3.
std::vector<Case> corpus() {
  std::vector<Case> cases;
  for (std::uint64_t jitter = 0; jitter <= 8; ++jitter) {
    cases.push_back({"fms jitter " + std::to_string(jitter), fms_graph(jitter), 2, 40});
  }
  const apps::Fig1App fig1 = apps::build_fig1();
  cases.push_back({"fig1", derive_task_graph(fig1.net, fig1.fig3_wcets()).graph, 2, 200});
  const apps::FftApp fft = apps::build_fft(8);
  cases.push_back(
      {"fft8", derive_task_graph(fft.net, fft.uniform_wcets(Duration::ratio_ms(40, 3))).graph,
       2, 200});
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      const TaskGraph tg = derive_task_graph(s.net, s.wcets).graph;
      for (std::int64_t m = 1; m <= 3; ++m) {
        cases.push_back({s.name + " M=" + std::to_string(m), tg, m, 100});
      }
    }
  }
  return cases;
}

void expect_same_counts(const ViolationCounts& got, const ViolationCounts& want,
                        const std::string& context) {
  EXPECT_EQ(got.unscheduled, want.unscheduled) << context;
  EXPECT_EQ(got.arrival, want.arrival) << context;
  EXPECT_EQ(got.deadline, want.deadline) << context;
  EXPECT_EQ(got.precedence, want.precedence) << context;
  EXPECT_EQ(got.mutex, want.mutex) << context;
}

/// A result holding `schedule`, scored by finalize_result on `scope` (a
/// search context or a task graph).
template <class Scope>
sched::StrategyResult finalized(const Scope& scope, StaticSchedule schedule) {
  sched::StrategyResult result;
  result.schedule = std::move(schedule);
  sched::finalize_result(scope, result);
  return result;
}

/// score_on_ticks against the Rational walk, and both finalize_result
/// overloads against each other. The tick score exists exactly when the
/// view has ticks and every start lies on its grid.
void expect_tick_score_matches(const sched::SearchContext& ctx, const StaticSchedule& s,
                               const std::string& context) {
  const TaskGraph& tg = ctx.graph();
  const std::optional<ScheduleScore> got = s.score_on_ticks(*ctx.compiled());
  ASSERT_EQ(got.has_value(), ctx.compiled()->has_ticks()) << context;
  if (got) {
    expect_same_counts(got->counts, s.count_violations(tg), context);
    EXPECT_EQ(got->makespan, s.makespan(tg)) << context;
  }
  const sched::StrategyResult on_ticks = finalized(ctx, s);
  const sched::StrategyResult on_graph = finalized(tg, s);
  EXPECT_EQ(on_ticks.deadline_violations, on_graph.deadline_violations) << context;
  EXPECT_EQ(on_ticks.makespan, on_graph.makespan) << context;
  EXPECT_EQ(on_ticks.feasible, on_graph.feasible) << context;
}

/// `s` with job `moved` placed where `target` is (same processor, same
/// start) or, when moved == target, left unplaced: copies that break
/// arrival, deadline, precedence and mutex rules on a real graph.
StaticSchedule perturbed(const StaticSchedule& s, std::size_t moved, std::size_t target) {
  StaticSchedule out(s.job_count(), s.processor_count());
  for (std::size_t i = 0; i < s.job_count(); ++i) {
    if (i != moved && s.is_placed(JobId(i))) {
      out.place(JobId(i), s.placement(JobId(i)).processor, s.placement(JobId(i)).start);
    }
  }
  if (moved != target) {
    out.place(JobId(moved), s.placement(JobId(target)).processor,
              s.placement(JobId(target)).start);
  }
  return out;
}

TEST(TickScoring, EveryBuiltinCandidateScoresAsTheRationalWalk) {
  const sched::StrategyRegistry& registry = sched::StrategyRegistry::global();
  ViolationCounts seen;  // over the perturbed copies: every kind must occur
  for (const Case& c : corpus()) {
    const sched::SearchContext ctx(c.tg, c.processors);
    sched::ParallelSearchOptions opts;
    opts.processors = c.processors;
    opts.seeds_per_strategy = 4;  // partitioned-wfd under every heuristic
    opts.max_iterations = c.iterations;
    opts.restarts = 1;
    gen::Rng rng(c.tg.job_count() * 131 + static_cast<std::uint64_t>(c.processors));
    for (const sched::SearchCandidate& candidate : sched::enumerate_search_candidates(opts)) {
      const std::string context =
          c.name + ", " + candidate.strategy + " seed " + std::to_string(candidate.seed);
      const sched::StrategyResult result =
          registry.create(candidate.strategy)
              ->schedule(ctx, sched::strategy_options_for(opts, candidate));
      expect_tick_score_matches(ctx, result.schedule, context);

      // The built-in scorer is the tick one: the result carries its score.
      const sched::StrategyResult rescored = finalized(c.tg, result.schedule);
      EXPECT_EQ(result.makespan, rescored.makespan) << context;
      EXPECT_EQ(result.deadline_violations, rescored.deadline_violations) << context;
      EXPECT_EQ(result.feasible, rescored.feasible) << context;

      const std::size_t n = c.tg.job_count();
      const auto last = static_cast<std::int64_t>(n) - 1;
      for (int k = 0; k < 4 && n > 0; ++k) {
        const auto moved = static_cast<std::size_t>(rng.range(0, last));
        const auto target = k == 0 ? moved : static_cast<std::size_t>(rng.range(0, last));
        const StaticSchedule copy = perturbed(result.schedule, moved, target);
        expect_tick_score_matches(ctx, copy,
                                  context + ", job " + std::to_string(moved) + " to " +
                                      std::to_string(target));
        const ViolationCounts counts = copy.count_violations(c.tg);
        seen.unscheduled += counts.unscheduled;
        seen.arrival += counts.arrival;
        seen.deadline += counts.deadline;
        seen.precedence += counts.precedence;
        seen.mutex += counts.mutex;
      }
    }
  }
  EXPECT_GT(seen.unscheduled, 0u);
  EXPECT_GT(seen.arrival, 0u);
  EXPECT_GT(seen.deadline, 0u);
  EXPECT_GT(seen.precedence, 0u);
  EXPECT_GT(seen.mutex, 0u);
}

Job make_job(const std::string& name, std::size_t process, const Time& arrival,
             const Time& deadline, const Duration& wcet) {
  Job j;
  j.process = ProcessId{process};
  j.arrival = arrival;
  j.deadline = deadline;
  j.wcet = wcet;
  j.name = name;
  return j;
}

/// a -> b, and an independent c; integral times, so one tick per ms.
///   a: A=0, D=5,  C=5      b: A=0, D=20, C=5      c: A=5, D=20, C=5
TaskGraph small_graph() {
  TaskGraph tg(Duration::ms(20));
  const JobId a = tg.add_job(make_job("a", 0, Time::ms(0), Time::ms(5), Duration::ms(5)));
  const JobId b = tg.add_job(make_job("b", 1, Time::ms(0), Time::ms(20), Duration::ms(5)));
  (void)tg.add_job(make_job("c", 2, Time::ms(5), Time::ms(20), Duration::ms(5)));
  tg.add_edge(a, b);
  return tg;
}

/// a on P0 at 0 (ends exactly at its deadline), b right behind it on P0
/// at 5 (starts exactly at its predecessor's and its neighbour's end), c
/// on P1 at its arrival 5: feasible, with every rule at its boundary.
StaticSchedule boundary_schedule(const TaskGraph& tg) {
  StaticSchedule s(tg.job_count(), 2);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  s.place(JobId(1), ProcessorId(0), Time::ms(5));
  s.place(JobId(2), ProcessorId(1), Time::ms(5));
  return s;
}

ScheduleScore tick_score(const TaskGraph& tg, const StaticSchedule& s) {
  const auto view = CompiledTaskGraph::compile(tg);
  const std::optional<ScheduleScore> score = s.score_on_ticks(view);
  EXPECT_TRUE(score.has_value());
  return score.value_or(ScheduleScore{});
}

TEST(TickScoring, EachKindAndEachBoundaryOnAHandBuiltGraph) {
  const TaskGraph tg = small_graph();
  const sched::SearchContext ctx(tg, 2);
  const JobId b(1);
  const JobId c(2);

  const StaticSchedule boundary = boundary_schedule(tg);
  const ScheduleScore clean = tick_score(tg, boundary);
  EXPECT_TRUE(clean.counts.feasible());
  EXPECT_EQ(clean.makespan, Time::ms(10));
  expect_tick_score_matches(ctx, boundary, "boundaries");

  const auto expect_one = [&](const StaticSchedule& s, std::size_t ViolationCounts::*kind,
                              const std::string& name) {
    const ScheduleScore score = tick_score(tg, s);
    EXPECT_EQ(score.counts.*kind, 1u) << name;
    EXPECT_EQ(score.counts.total(), 1u) << name;
    expect_tick_score_matches(ctx, s, name);
  };

  StaticSchedule unplaced(tg.job_count(), 2);
  unplaced.place(JobId(0), ProcessorId(0), Time::ms(0));
  unplaced.place(b, ProcessorId(0), Time::ms(5));
  expect_one(unplaced, &ViolationCounts::unscheduled, "unplaced c");

  StaticSchedule early = boundary;
  early.place(c, ProcessorId(1), Time::ms(4));
  expect_one(early, &ViolationCounts::arrival, "c before its arrival");

  StaticSchedule late = boundary;
  late.place(c, ProcessorId(1), Time::ms(16));
  expect_one(late, &ViolationCounts::deadline, "c past its deadline");
  EXPECT_EQ(tick_score(tg, late).makespan, Time::ms(21));

  StaticSchedule overtaking = boundary;
  overtaking.place(b, ProcessorId(1), Time::ms(4));
  overtaking.place(c, ProcessorId(1), Time::ms(9));
  expect_one(overtaking, &ViolationCounts::precedence, "b before a ends");

  StaticSchedule overlap = boundary;
  overlap.place(c, ProcessorId(0), Time::ms(7));
  expect_one(overlap, &ViolationCounts::mutex, "c over b on P0");
  EXPECT_EQ(tick_score(tg, overlap).makespan, Time::ms(12));
}

TEST(TickScoring, AnOffGridStartFallsBackToTheRationalWalk) {
  const TaskGraph tg = small_graph();
  const sched::SearchContext ctx(tg, 2);
  ASSERT_TRUE(ctx.compiled()->has_ticks());
  ASSERT_EQ(ctx.compiled()->ticks_per_ms(), 1);
  // c at 46/3: its denominator does not divide L = 1. It ends at 61/3,
  // past its deadline 20; any rounding onto the grid would miss that.
  StaticSchedule s = boundary_schedule(tg);
  s.place(JobId(2), ProcessorId(1), Time(Rational(46, 3)));
  EXPECT_FALSE(s.score_on_ticks(*ctx.compiled()).has_value());
  const sched::StrategyResult result = finalized(ctx, s);
  EXPECT_EQ(result.makespan, Time(Rational(61, 3)));
  EXPECT_EQ(result.deadline_violations, 1u);
  EXPECT_FALSE(result.feasible);
}

TEST(TickScoring, AGraphWithoutTicksFallsBackToTheRationalWalk) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const gen::Scenario s = gen::make_scenario(gen::Family::kNearOverflow, seed);
    const TaskGraph tg = derive_task_graph(s.net, s.wcets).graph;
    const sched::SearchContext ctx(tg, 2);
    ASSERT_FALSE(ctx.compiled()->has_ticks()) << s.name;
    for (const PriorityHeuristic h : all_heuristics()) {
      const StaticSchedule& schedule = ctx.heuristic(h).schedule;
      EXPECT_FALSE(schedule.score_on_ticks(*ctx.compiled()).has_value()) << s.name;
      expect_tick_score_matches(ctx, schedule, s.name + ", " + to_string(h));
    }
  }
}

TEST(TickScoring, AnOverflowingAddFallsBackToTheRationalWalk) {
  // x's WCET 1/2 sets L = 2; y starts at (2^63 - 1) / 2 ms, so its start
  // is 2^63 - 2 ticks and its finish does not fit in int64. On the
  // Rational side both are small integers' sums.
  constexpr std::int64_t kHalf = std::numeric_limits<std::int64_t>::max() / 2;
  TaskGraph tg(Duration::ms(20));
  (void)tg.add_job(make_job("x", 0, Time::ms(0), Time::ms(20), Duration::ratio_ms(1, 2)));
  (void)tg.add_job(make_job("y", 1, Time::ms(0), Time::ms(20), Duration::ms(1)));
  const sched::SearchContext ctx(tg, 2);
  ASSERT_TRUE(ctx.compiled()->has_ticks());
  ASSERT_EQ(ctx.compiled()->ticks_per_ms(), 2);
  StaticSchedule s(tg.job_count(), 2);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  s.place(JobId(1), ProcessorId(1), Time::ms(kHalf));
  ASSERT_TRUE(ctx.compiled()->ticks_from_time(Time::ms(kHalf)).has_value());
  EXPECT_FALSE(s.score_on_ticks(*ctx.compiled()).has_value());
  const sched::StrategyResult result = finalized(ctx, s);
  EXPECT_EQ(result.makespan, Time::ms(kHalf + 1));
  EXPECT_EQ(result.deadline_violations, 1u);
}

TEST(TickScoring, AScheduleOfAnotherJobCountFallsBack) {
  const TaskGraph tg = small_graph();
  const auto view = CompiledTaskGraph::compile(tg);
  StaticSchedule s(tg.job_count() + 1, 2);
  EXPECT_FALSE(s.score_on_ticks(view).has_value());
}

TEST(TickOrders, EveryHeuristicOrderMatchesTheRationalOracle) {
  for (const Case& c : corpus()) {
    if (c.processors != 2) {
      continue;  // one pass per graph: the order does not depend on M
    }
    const CompiledTaskGraph view = CompiledTaskGraph::compile(c.tg);
    for (const PriorityHeuristic h : all_heuristics()) {
      const std::string context = c.name + ", " + to_string(h);
      const std::optional<std::vector<JobId>> got = schedule_priority(view, h);
      ASSERT_EQ(got.has_value(), view.has_ticks()) << context;
      if (got) {
        EXPECT_EQ(*got, schedule_priority(c.tg, h)) << context;
      }
    }
  }
}

TEST(TickOrders, TheStoredTopologicalOrderCoversEveryJobAfterItsPredecessors) {
  for (const Case& c : corpus()) {
    if (c.processors != 2) {
      continue;  // one pass per graph
    }
    const CompiledTaskGraph view = CompiledTaskGraph::compile(c.tg);
    const std::vector<std::uint32_t>& order = view.topological_order();
    ASSERT_EQ(order.size(), c.tg.job_count()) << c.name;
    std::vector<std::size_t> position(order.size(), order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      ASSERT_LT(order[k], order.size()) << c.name;
      ASSERT_EQ(position[order[k]], order.size()) << c.name << ": job twice";
      position[order[k]] = k;
    }
    for (const auto& [u, v] : c.tg.edges()) {
      EXPECT_LT(position[u.value()], position[v.value()]) << c.name;
    }
  }
}

TEST(TickOrders, CyclicGraphsAndOverflowingKeysDeferToTheRationalOracle) {
  TaskGraph cyclic(Duration::ms(100));
  const JobId u = cyclic.add_job(make_job("u", 0, Time::ms(0), Time::ms(50), Duration::ms(5)));
  const JobId v = cyclic.add_job(make_job("v", 1, Time::ms(0), Time::ms(50), Duration::ms(5)));
  cyclic.add_edge(u, v);
  cyclic.add_edge(v, u);
  const CompiledTaskGraph cyclic_view = CompiledTaskGraph::compile(cyclic);
  ASSERT_TRUE(cyclic_view.has_ticks());
  EXPECT_TRUE(cyclic_view.topological_order().empty());
  for (const PriorityHeuristic h : all_heuristics()) {
    EXPECT_FALSE(schedule_priority(cyclic_view, h).has_value()) << to_string(h);
  }

  // D - A of w is 2^63 ms: both fit in int64 ticks, their difference does
  // not.
  constexpr std::int64_t kHalf = std::int64_t{1} << 62;
  TaskGraph wide(Duration::ms(100));
  (void)wide.add_job(make_job("w", 0, Time::ms(-kHalf), Time::ms(kHalf), Duration::ms(1)));
  const CompiledTaskGraph wide_view = CompiledTaskGraph::compile(wide);
  ASSERT_TRUE(wide_view.has_ticks());
  EXPECT_FALSE(schedule_priority(wide_view, PriorityHeuristic::kDeadlineMonotonic).has_value());
  EXPECT_EQ(schedule_priority(wide_view, PriorityHeuristic::kArrivalOrder),
            std::vector<JobId>{JobId(0)});
}

}  // namespace
}  // namespace fppn
