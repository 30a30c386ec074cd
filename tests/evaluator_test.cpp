// The evaluation kernel's determinism contract: for any valid SP order,
// sched::Evaluator produces the bit-identical score and placements of the
// reference list_schedule + feasibility pipeline — across random graphs
// (fractional WCETs, staggered arrivals, varied processor counts), on the
// int64 tick timebase and on the Rational overflow fallback, and all the
// way up the search stack (the four heuristic strategies against the
// rescan oracle of testing/list_scheduler.hpp; optimize_priority and
// parallel_search against the test oracle in testing/reference_search.hpp:
// identical winners, cold and warm, on any worker count).
#include "sched/evaluator.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <random>

#include "gen/scenario.hpp"
#include "sched/local_search.hpp"
#include "sched/parallel_search.hpp"
#include "sched/partitioned.hpp"
#include "sched/registry.hpp"
#include "sched/schedule_cache.hpp"
#include "taskgraph/task_graph.hpp"
#include "testing/list_scheduler.hpp"
#include "testing/reference_search.hpp"

namespace fppn {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_evaluator_test_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Job make_job(const std::string& name, Time arrival, Time deadline, Duration wcet,
             std::size_t process) {
  Job j;
  j.process = ProcessId{process};
  j.arrival = arrival;
  j.deadline = deadline;
  j.wcet = wcet;
  j.name = name;
  return j;
}

/// Random layered DAG with staggered arrivals and fractional WCETs —
/// the shared gen:: family (platform-deterministic, denominators 1..7,
/// ties at decision instants, idle gaps, infeasible frames). The same
/// generator feeds the fuzz loop, so differential coverage here and
/// there stays aligned.
TaskGraph random_task_graph(std::uint64_t seed) {
  return gen::layered_task_graph(seed);
}

std::vector<JobId> random_permutation(std::size_t n, std::mt19937_64& rng) {
  std::vector<JobId> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    order.push_back(JobId(i));
  }
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

void expect_identical_placements(const StaticSchedule& a, const StaticSchedule& b,
                                 const std::string& context) {
  ASSERT_EQ(a.job_count(), b.job_count()) << context;
  for (std::size_t i = 0; i < a.job_count(); ++i) {
    const JobId id(i);
    ASSERT_EQ(a.is_placed(id), b.is_placed(id)) << context << " job " << i;
    if (!a.is_placed(id)) {
      continue;
    }
    EXPECT_EQ(a.placement(id).processor.value(), b.placement(id).processor.value())
        << context << " job " << i;
    EXPECT_EQ(a.placement(id).start, b.placement(id).start) << context << " job " << i;
  }
}

void expect_kernel_matches_reference(const TaskGraph& tg, std::int64_t processors,
                                     const std::vector<JobId>& order,
                                     sched::Evaluator& kernel,
                                     const std::string& context) {
  const sched::EvalScore fast = kernel.evaluate(order);
  const sched::EvalScore ref = testing::reference_score(tg, order, processors);
  EXPECT_EQ(fast.deadline_violations, ref.deadline_violations) << context;
  EXPECT_EQ(fast.makespan, ref.makespan) << context;
  expect_identical_placements(kernel.materialize(order),
                              testing::list_schedule(tg, order, processors), context);
}

/// Each registered heuristic strategy against the rescan oracle on M = 1,
/// 2 and 3: the same placements, the same score, and no kernel
/// evaluation counted.
void expect_heuristic_strategies_match_oracle(const TaskGraph& tg,
                                              const std::string& context) {
  for (const std::int64_t processors : {1, 2, 3}) {
    sched::StrategyOptions opts;
    opts.processors = processors;
    for (const PriorityHeuristic h : all_heuristics()) {
      const std::string where =
          context + " " + to_string(h) + " M=" + std::to_string(processors);
      const sched::StrategyResult got =
          sched::StrategyRegistry::global().create(to_string(h))->schedule(tg, opts);
      const StaticSchedule ref = testing::list_schedule(tg, h, processors);
      expect_identical_placements(got.schedule, ref, where);
      const ViolationCounts counts = ref.count_violations(tg);
      EXPECT_EQ(got.strategy, to_string(h)) << where;
      EXPECT_EQ(got.makespan, ref.makespan(tg)) << where;
      EXPECT_EQ(got.deadline_violations, counts.deadline) << where;
      EXPECT_EQ(got.feasible, counts.feasible()) << where;
      EXPECT_EQ(got.full_evals + got.incremental_evals + got.spliced_evals, 0u) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized differential suite: 220 graphs x processors x orders, all
// bit-identical to the reference.
TEST(EvaluatorDifferential, RandomGraphsScoreAndPlacementsBitIdentical) {
  std::size_t tick_graphs = 0;
  for (std::uint64_t g = 0; g < 220; ++g) {
    const TaskGraph tg = random_task_graph(g);
    const std::int64_t processors = 1 + static_cast<std::int64_t>(g % 4);
    sched::Evaluator kernel(tg, processors);
    tick_graphs += kernel.uses_ticks() ? 1 : 0;
    std::mt19937_64 rng(g * 7919 + 1);
    const std::string context =
        "graph " + std::to_string(g) + " M=" + std::to_string(processors);
    // One heuristic order (rotating through all four) + two random ones.
    const PriorityHeuristic h = all_heuristics()[g % all_heuristics().size()];
    expect_kernel_matches_reference(tg, processors, schedule_priority(tg, h), kernel,
                                    context + " heuristic");
    for (int k = 0; k < 2; ++k) {
      expect_kernel_matches_reference(tg, processors,
                                      random_permutation(tg.job_count(), rng), kernel,
                                      context + " random " + std::to_string(k));
    }
    expect_heuristic_strategies_match_oracle(tg, "graph " + std::to_string(g));
  }
  // Fractional-but-small denominators must stay on the fast tick path.
  EXPECT_EQ(tick_graphs, 220u);
}

TEST(EvaluatorDifferential, ZeroWcetJobsMatchReference) {
  // Zero-WCET jobs release their processor and their successors at the
  // same instant they start — the trickiest event ordering in the kernel.
  TaskGraph tg(Duration::ms(100));
  const JobId a = tg.add_job(make_job("a", Time::ms(0), Time::ms(100), Duration::ms(0), 0));
  const JobId b = tg.add_job(make_job("b", Time::ms(0), Time::ms(100), Duration::ms(7), 1));
  const JobId c = tg.add_job(make_job("c", Time::ms(0), Time::ms(100), Duration::ms(0), 2));
  const JobId d = tg.add_job(make_job("d", Time::ms(3), Time::ms(9), Duration::ms(5), 3));
  tg.add_edge(a, c);
  tg.add_edge(c, d);
  sched::Evaluator kernel(tg, 2);
  std::mt19937_64 rng(11);
  for (int k = 0; k < 20; ++k) {
    expect_kernel_matches_reference(tg, 2, random_permutation(tg.job_count(), rng),
                                    kernel, "zero-wcet " + std::to_string(k));
  }
  (void)b;
}

TEST(EvaluatorDifferential, EdgeCaseFamiliesMatchReference) {
  // The generator's adversarial shapes: zero-WCET chains, all-identical
  // tie storms, tick-overflow denominators (Rational fallback) and
  // trivial/antichain graphs — 40 graphs covering all four variants.
  std::size_t rational_graphs = 0;
  for (std::uint64_t g = 0; g < 40; ++g) {
    const TaskGraph tg = gen::edge_case_task_graph(g);
    if (tg.job_count() == 0) {
      continue;
    }
    const std::int64_t processors = 1 + static_cast<std::int64_t>(g % 3);
    sched::Evaluator kernel(tg, processors);
    rational_graphs += kernel.uses_ticks() ? 0 : 1;
    std::mt19937_64 rng(g * 613 + 7);
    const std::string context =
        "edge graph " + std::to_string(g) + " M=" + std::to_string(processors);
    expect_kernel_matches_reference(
        tg, processors, schedule_priority(tg, PriorityHeuristic::kAlapEdf), kernel,
        context + " heuristic");
    for (int k = 0; k < 2; ++k) {
      expect_kernel_matches_reference(tg, processors,
                                      random_permutation(tg.job_count(), rng), kernel,
                                      context + " random " + std::to_string(k));
    }
    expect_heuristic_strategies_match_oracle(tg, "edge graph " + std::to_string(g));
  }
  // The heuristic strategies were also checked on the Rational fallback.
  EXPECT_GT(rational_graphs, 0u);
}

// ---------------------------------------------------------------------------
// Tick-overflow cases: the kernel must fall back to exact Rational
// arithmetic and still match the reference bit for bit.
TEST(Evaluator, LcmOverflowFallsBackToRationals) {
  // Denominators are three large primes: their lcm overflows int64, so no
  // common tick size exists.
  TaskGraph tg(Duration::ms(1000));
  tg.add_job(make_job("p1", Time::ms(0), Time::ms(1000),
                      Duration(Rational(7, 1000000007)), 0));
  tg.add_job(make_job("p2", Time::ms(0), Time::ms(1000),
                      Duration(Rational(11, 998244353)), 1));
  tg.add_job(make_job("p3", Time::ms(0), Time::ms(1000),
                      Duration(Rational(13, 999999937)), 2));
  sched::Evaluator kernel(tg, 2);
  EXPECT_FALSE(kernel.uses_ticks());
  std::mt19937_64 rng(3);
  for (int k = 0; k < 10; ++k) {
    expect_kernel_matches_reference(tg, 2, random_permutation(tg.job_count(), rng),
                                    kernel, "lcm overflow " + std::to_string(k));
  }
}

TEST(Evaluator, WorstCaseMakespanOverflowFallsBackToRationals) {
  // Every individual value fits in int64 ticks, but max arrival + total
  // WCET does not — the kernel must refuse ticks rather than overflow
  // mid-simulation.
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max() / 2;
  TaskGraph tg;
  tg.add_job(make_job("late", Time(Rational(huge)), Time(Rational(huge) + Rational(2)),
                      Duration(Rational(2)), 0));
  tg.add_job(make_job("long", Time::ms(0), Time(Rational(huge)),
                      Duration(Rational(huge)), 1));
  sched::Evaluator kernel(tg, 1);
  EXPECT_FALSE(kernel.uses_ticks());
  std::vector<JobId> order{JobId(0), JobId(1)};
  expect_kernel_matches_reference(tg, 1, order, kernel, "makespan overflow");
  std::vector<JobId> reversed{JobId(1), JobId(0)};
  expect_kernel_matches_reference(tg, 1, reversed, kernel, "makespan overflow rev");
}

TEST(Evaluator, FractionalDenominatorsStayExactOnTicks) {
  // 1/3 + 1/6 style boundaries: ticks must reproduce the exact rational
  // comparison, not a rounded one. lcm(3, 6, 4) = 12 ticks/ms.
  TaskGraph tg(Duration::ms(10));
  const JobId a =
      tg.add_job(make_job("a", Time::ms(0), Time(Rational(1, 2)),
                          Duration(Rational(1, 3)), 0));
  const JobId b =
      tg.add_job(make_job("b", Time::ms(0), Time(Rational(1, 2)),
                          Duration(Rational(1, 6)), 1));
  const JobId c =
      tg.add_job(make_job("c", Time(Rational(1, 4)), Time(Rational(3, 4)),
                          Duration(Rational(1, 4)), 2));
  tg.add_edge(a, c);
  sched::Evaluator kernel(tg, 1);
  EXPECT_TRUE(kernel.uses_ticks());
  const std::vector<JobId> order{a, b, c};
  const sched::EvalScore score = kernel.evaluate(order);
  // a: [0, 1/3), b: [1/3, 1/2), c: starts max(1/3, 1/4) on the only
  // processor after b -> [1/2, 3/4]: exactly on its deadline, no miss.
  EXPECT_EQ(score.deadline_violations, 0u);
  EXPECT_EQ(score.makespan, Time(Rational(3, 4)));
  expect_kernel_matches_reference(tg, 1, order, kernel, "fractional ticks");
}

// ---------------------------------------------------------------------------
// Contract edges.
TEST(Evaluator, RejectsBadInputsLikeTheReference) {
  TaskGraph tg(Duration::ms(100));
  const JobId a = tg.add_job(make_job("a", Time::ms(0), Time::ms(50), Duration::ms(5), 0));
  const JobId b = tg.add_job(make_job("b", Time::ms(0), Time::ms(50), Duration::ms(5), 1));
  EXPECT_THROW(sched::Evaluator(tg, 0), std::invalid_argument);
  sched::Evaluator kernel(tg, 1);
  EXPECT_THROW((void)kernel.evaluate({a}), std::invalid_argument);
  EXPECT_THROW((void)kernel.evaluate({a, a}), std::invalid_argument);
  EXPECT_THROW((void)kernel.evaluate({}), std::invalid_argument);

  TaskGraph cyclic(Duration::ms(100));
  const JobId u =
      cyclic.add_job(make_job("u", Time::ms(0), Time::ms(50), Duration::ms(5), 0));
  const JobId v =
      cyclic.add_job(make_job("v", Time::ms(0), Time::ms(50), Duration::ms(5), 1));
  cyclic.add_edge(u, v);
  cyclic.add_edge(v, u);
  EXPECT_THROW(sched::Evaluator(cyclic, 2), std::invalid_argument);

  // The heuristic strategies reject what the rescan oracle rejects.
  sched::StrategyOptions two;
  two.processors = 2;
  sched::StrategyOptions none;
  none.processors = 0;
  for (const PriorityHeuristic h : all_heuristics()) {
    const auto strategy = sched::StrategyRegistry::global().create(to_string(h));
    EXPECT_THROW((void)strategy->schedule(cyclic, two), std::invalid_argument)
        << to_string(h);
    EXPECT_THROW((void)testing::list_schedule(cyclic, h, 2), std::invalid_argument)
        << to_string(h);
    EXPECT_THROW((void)strategy->schedule(tg, none), std::invalid_argument)
        << to_string(h);
    EXPECT_THROW((void)testing::list_schedule(tg, h, 0), std::invalid_argument)
        << to_string(h);
  }
  (void)b;
}

TEST(Evaluator, TrivialGraphs) {
  TaskGraph empty;
  sched::Evaluator kernel(empty, 3);
  const sched::EvalScore score = kernel.evaluate({});
  EXPECT_EQ(score.deadline_violations, 0u);
  EXPECT_EQ(score.makespan, Time());
  const StaticSchedule s = kernel.materialize({});
  EXPECT_EQ(s.job_count(), 0u);
  EXPECT_EQ(s.processor_count(), 3);

  TaskGraph one(Duration::ms(50));
  const JobId solo =
      one.add_job(make_job("solo", Time::ms(5), Time::ms(50), Duration::ms(10), 0));
  sched::Evaluator kernel1(one, 2);
  const sched::EvalScore s1 = kernel1.evaluate({solo});
  EXPECT_EQ(s1.deadline_violations, 0u);
  EXPECT_EQ(s1.makespan, Time::ms(15));
  expect_identical_placements(kernel1.materialize({solo}),
                              testing::list_schedule(one, {solo}, 2), "single job");
}

TEST(Evaluator, ScratchReuseAcrossManyEvaluationsStaysExact) {
  // The same Evaluator instance is hammered with alternating orders; any
  // stale scratch state would show up as a diverging score.
  const TaskGraph tg = random_task_graph(42);
  sched::Evaluator kernel(tg, 2);
  std::mt19937_64 rng(42);
  std::vector<std::vector<JobId>> orders;
  for (int k = 0; k < 8; ++k) {
    orders.push_back(random_permutation(tg.job_count(), rng));
  }
  std::vector<sched::EvalScore> first;
  for (const auto& order : orders) {
    first.push_back(kernel.evaluate(order));
  }
  for (int round = 0; round < 3; ++round) {
    for (std::size_t k = 0; k < orders.size(); ++k) {
      const sched::EvalScore again = kernel.evaluate(orders[k]);
      EXPECT_EQ(again.deadline_violations, first[k].deadline_violations);
      EXPECT_EQ(again.makespan, first[k].makespan);
    }
  }
}

// ---------------------------------------------------------------------------
// The search stack: kernel and oracle winners are bit-identical at every
// level the kernel feeds.
TEST(EvaluatorSearch, OptimizePriorityFastVsReferenceBitIdentical) {
  for (std::uint64_t g = 0; g < 12; ++g) {
    const TaskGraph tg = random_task_graph(g * 31 + 5);
    for (const std::uint64_t seed : {1ULL, 9ULL}) {
      sched::StrategyOptions opts;
      opts.processors = 1 + static_cast<std::int64_t>(g % 3);
      opts.max_iterations = 150;
      opts.restarts = 1;
      opts.seed = seed;
      const LocalSearchResult fast = optimize_priority(tg, opts);
      const LocalSearchResult ref = testing::reference_optimize_priority(tg, opts);
      const std::string context = "graph " + std::to_string(g) + " seed " +
                                  std::to_string(seed);
      EXPECT_EQ(fast.priority, ref.priority) << context;
      EXPECT_EQ(fast.violations, ref.violations) << context;
      EXPECT_EQ(fast.makespan, ref.makespan) << context;
      EXPECT_EQ(fast.feasible, ref.feasible) << context;
      EXPECT_EQ(fast.iterations_used, ref.iterations_used) << context;
      EXPECT_EQ(fast.start_heuristic, ref.start_heuristic) << context;
      expect_identical_placements(fast.schedule, ref.schedule, context);
    }
  }
}

sched::ParallelSearchOptions search_options(std::int64_t processors) {
  sched::ParallelSearchOptions opts;
  opts.processors = processors;
  opts.workers = 2;
  opts.seeds_per_strategy = 2;
  opts.max_iterations = 120;
  opts.restarts = 1;
  return opts;
}

void expect_identical_winner(const sched::ParallelSearchResult& a,
                             const sched::ParallelSearchResult& b,
                             const std::string& context) {
  EXPECT_EQ(a.best.strategy, b.best.strategy) << context;
  EXPECT_EQ(a.seed, b.seed) << context;
  EXPECT_EQ(a.best.makespan, b.best.makespan) << context;
  EXPECT_EQ(a.best.feasible, b.best.feasible) << context;
  EXPECT_EQ(a.best.deadline_violations, b.best.deadline_violations) << context;
  expect_identical_placements(a.best.schedule, b.best.schedule, context);
}

TEST(EvaluatorSearch, ParallelSearchWinnerIdenticalFastVsReference) {
  for (const std::uint64_t g : {101ULL, 202ULL}) {
    const TaskGraph tg = random_task_graph(g);
    sched::ParallelSearchOptions opts = search_options(2);
    const sched::ParallelSearchResult ref = testing::reference_search(tg, opts);
    for (const int workers : {1, 2, 3}) {
      opts.workers = workers;
      expect_identical_winner(sched::parallel_search(tg, opts), ref,
                              "parallel fast-vs-reference, graph " + std::to_string(g) +
                                  ", " + std::to_string(workers) + " worker(s)");
    }
  }
}

TEST(EvaluatorSearch, WarmSearchWithKernelMatchesColdReferenceWinnerOrBeatsIt) {
  // The reference plan winner, then the kernel search cold and warm from
  // a disk cache: the warm run evaluates nothing and its winner matches
  // the reference outright (a cached search never beats the cold one).
  const TaskGraph tg = random_task_graph(55);
  TempDir dir("warm_kernel");
  sched::ScheduleCache cache(dir.path());
  sched::ParallelSearchOptions opts = search_options(2);
  const sched::ParallelSearchResult ref = testing::reference_search(tg, opts);
  opts.cache = &cache;
  (void)sched::parallel_search(tg, opts);
  const sched::ParallelSearchResult warm = sched::parallel_search(tg, opts);
  EXPECT_EQ(warm.evaluated, 0u) << "second run must be answered by the cache";
  expect_identical_winner(warm, ref, "warm kernel vs cold reference");
}

// ---------------------------------------------------------------------------
// Incremental differential suite: every move score from the checkpointed
// API must be bit-identical to a from-scratch evaluation — accepted and
// rejected moves alike, across 200 random graphs and M = 1..4.

/// Applies a local-search move in place (the exact move shapes
/// optimize_priority generates).
void apply_move(std::vector<JobId>& order, std::size_t i, std::size_t j,
                bool swap_move) {
  const std::size_t lo = std::min(i, j);
  const std::size_t hi = std::max(i, j);
  if (swap_move) {
    std::swap(order[i], order[j]);
  } else {
    std::rotate(order.begin() + static_cast<std::ptrdiff_t>(lo),
                order.begin() + static_cast<std::ptrdiff_t>(hi),
                order.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
  }
}

TEST(EvaluatorIncremental, MoveScoresBitIdenticalAcross200Graphs) {
  std::uint64_t resumed = 0;
  std::uint64_t spliced = 0;
  for (std::uint64_t g = 0; g < 200; ++g) {
    const TaskGraph tg = random_task_graph(g + 1000);
    const std::int64_t processors = 1 + static_cast<std::int64_t>(g % 4);
    const std::size_t n = tg.job_count();
    sched::Evaluator inc(tg, processors);
    sched::Evaluator scratch(tg, processors);  // independent from-scratch check
    std::mt19937_64 rng(g * 6007 + 17);
    std::vector<JobId> current =
        schedule_priority(tg, all_heuristics()[g % all_heuristics().size()]);
    sched::EvalScore cur = inc.evaluate_baseline(current);
    {
      const sched::EvalScore full = scratch.evaluate(current);
      ASSERT_EQ(cur.deadline_violations, full.deadline_violations) << "graph " << g;
      ASSERT_EQ(cur.makespan, full.makespan) << "graph " << g;
    }
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    for (int mv = 0; mv < 12; ++mv) {
      const std::size_t i = pick(rng);
      std::size_t j = pick(rng);
      if (i == j) {
        j = (j + 1) % n;
      }
      const std::size_t lo = std::min(i, j);
      const std::size_t hi = std::max(i, j);
      const bool swap_move = (rng() & 1U) == 0U;
      std::vector<JobId> moved = current;
      apply_move(moved, i, j, swap_move);
      const sched::EvalScore fast = inc.evaluate_move(
          moved, lo, hi, swap_move ? sched::MoveKind::kSwap : sched::MoveKind::kRotate);
      const sched::EvalScore full = scratch.evaluate(moved);
      const std::string ctx = "graph " + std::to_string(g) + " M=" +
                              std::to_string(processors) + " move " +
                              std::to_string(mv);
      ASSERT_EQ(fast.deadline_violations, full.deadline_violations) << ctx;
      ASSERT_EQ(fast.makespan, full.makespan) << ctx;
      if (fast.better_than(cur)) {  // accepted: rebuild the baseline, like the search
        current = std::move(moved);
        cur = inc.evaluate_baseline(current);
      }
    }
    EXPECT_EQ(inc.stats().incremental_evals, 12u) << "graph " << g;
    resumed += inc.stats().resumed_evals;
    spliced += inc.stats().spliced_evals;
  }
  // The shortcuts must actually fire across the suite, or this proves
  // nothing about the incremental paths.
  EXPECT_GT(resumed, 0u);
  EXPECT_GT(spliced, 0u);
}

TEST(EvaluatorIncremental, CheckpointStrideExtremesBitIdentical) {
  // Stride 1 (a checkpoint after every start), the √n default and stride n
  // (checkpoint only at start 0) must all return the same scores and walk
  // the same accept/reject trajectory.
  for (std::uint64_t g = 0; g < 24; ++g) {
    const TaskGraph tg = random_task_graph(g + 3000);
    const std::int64_t processors = 1 + static_cast<std::int64_t>(g % 4);
    const std::size_t n = tg.job_count();
    sched::Evaluator k1(tg, processors);
    sched::Evaluator kd(tg, processors);
    sched::Evaluator kn(tg, processors);
    k1.set_checkpoint_stride(1);
    kn.set_checkpoint_stride(n);
    std::vector<JobId> current = schedule_priority(tg, PriorityHeuristic::kAlapEdf);
    sched::EvalScore cur = k1.evaluate_baseline(current);
    ASSERT_EQ(cur.makespan, kd.evaluate_baseline(current).makespan);
    ASSERT_EQ(cur.makespan, kn.evaluate_baseline(current).makespan);
    std::mt19937_64 rng(g + 5);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    for (int mv = 0; mv < 10; ++mv) {
      const std::size_t i = pick(rng);
      std::size_t j = pick(rng);
      if (i == j) {
        j = (j + 1) % n;
      }
      const std::size_t lo = std::min(i, j);
      const std::size_t hi = std::max(i, j);
      const bool swap_move = (rng() & 1U) == 0U;
      const sched::MoveKind kind =
          swap_move ? sched::MoveKind::kSwap : sched::MoveKind::kRotate;
      std::vector<JobId> moved = current;
      apply_move(moved, i, j, swap_move);
      const sched::EvalScore s1 = k1.evaluate_move(moved, lo, hi, kind);
      const sched::EvalScore sd = kd.evaluate_move(moved, lo, hi, kind);
      const sched::EvalScore sn = kn.evaluate_move(moved, lo, hi, kind);
      const std::string ctx = "graph " + std::to_string(g) + " move " +
                              std::to_string(mv);
      ASSERT_EQ(s1.deadline_violations, sd.deadline_violations) << ctx;
      ASSERT_EQ(s1.makespan, sd.makespan) << ctx;
      ASSERT_EQ(s1.deadline_violations, sn.deadline_violations) << ctx;
      ASSERT_EQ(s1.makespan, sn.makespan) << ctx;
      if (s1.better_than(cur)) {
        current = std::move(moved);
        cur = k1.evaluate_baseline(current);
        (void)kd.evaluate_baseline(current);
        (void)kn.evaluate_baseline(current);
      }
    }
  }
}

TEST(EvaluatorIncremental, MoveWithoutBaselineFallsBackToFullRun) {
  const TaskGraph tg = random_task_graph(61);
  sched::Evaluator kernel(tg, 2);
  std::mt19937_64 rng(61);
  const std::vector<JobId> order = random_permutation(tg.job_count(), rng);
  const sched::EvalScore moved =
      kernel.evaluate_move(order, 0, 1, sched::MoveKind::kSwap);
  const sched::EvalScore full = kernel.evaluate(order);
  EXPECT_EQ(moved.deadline_violations, full.deadline_violations);
  EXPECT_EQ(moved.makespan, full.makespan);

  // Invalidation drops the baseline the same way.
  (void)kernel.evaluate_baseline(order);
  kernel.invalidate_baseline();
  const sched::EvalScore after =
      kernel.evaluate_move(order, 0, 1, sched::MoveKind::kSwap);
  EXPECT_EQ(after.makespan, full.makespan);
}

TEST(EvaluatorIncremental, ContractEdges) {
  const TaskGraph tg = random_task_graph(62);
  sched::Evaluator kernel(tg, 2);
  const std::vector<JobId> order =
      schedule_priority(tg, PriorityHeuristic::kAlapEdf);
  (void)kernel.evaluate_baseline(order);
  // Out-of-range move positions are rejected up front.
  EXPECT_THROW((void)kernel.evaluate_move(order, 2, 1, sched::MoveKind::kSwap),
               std::invalid_argument);
  EXPECT_THROW((void)kernel.evaluate_move(order, 0, tg.job_count(),
                                          sched::MoveKind::kRotate),
               std::invalid_argument);
  // The incremental API is a global-mode feature.
  std::size_t process_count = 0;
  for (const Job& j : tg.jobs()) {
    process_count = std::max(process_count, j.process.value() + 1);
  }
  sched::Evaluator part(tg, 2, wfd_assignment(tg, process_count, 2));
  EXPECT_TRUE(part.partition_mode());
  EXPECT_THROW((void)part.evaluate_baseline(order), std::logic_error);
  EXPECT_THROW((void)part.evaluate_move(order, 0, 1, sched::MoveKind::kSwap),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Partition-constrained kernel vs the naive partitioned pipeline.
TEST(EvaluatorPartition, KernelMatchesNaivePartitionedPipeline) {
  for (std::uint64_t g = 0; g < 40; ++g) {
    const TaskGraph tg = random_task_graph(g + 5000);
    const std::int64_t processors = 1 + static_cast<std::int64_t>(g % 4);
    std::size_t process_count = 0;
    for (const Job& j : tg.jobs()) {
      process_count = std::max(process_count, j.process.value() + 1);
    }
    const std::vector<ProcessorId> assignment =
        wfd_assignment(tg, process_count, processors);
    sched::Evaluator kernel(tg, processors, assignment);
    std::mt19937_64 rng(g * 271 + 3);
    const std::string context =
        "graph " + std::to_string(g) + " M=" + std::to_string(processors);
    for (int k = 0; k < 3; ++k) {
      const std::vector<JobId> order = random_permutation(tg.job_count(), rng);
      const StaticSchedule ref =
          testing::partitioned_list_schedule(tg, assignment, order, processors);
      const sched::EvalScore fast = kernel.evaluate(order);
      EXPECT_EQ(fast.deadline_violations, ref.count_violations(tg).deadline)
          << context << " order " << k;
      EXPECT_EQ(fast.makespan, ref.makespan(tg)) << context << " order " << k;
      expect_identical_placements(kernel.materialize(order), ref,
                                  context + " order " + std::to_string(k));
    }
  }
}

// ---------------------------------------------------------------------------
// Edge-family differential: the generator's adversarial graphs (zero-WCET
// chains, tie storms, the Rational fallback, trivial shapes) through the
// incremental and partition paths, against the oracles.

bool has_zero_wcet_job(const TaskGraph& tg) {
  for (const Job& j : tg.jobs()) {
    if (j.wcet.is_zero()) {
      return true;
    }
  }
  return false;
}

TEST(EvaluatorIncremental, EdgeCaseMovesMatchReferenceOnEveryStride) {
  std::size_t moves = 0;
  std::size_t rational_moves = 0;
  std::size_t zero_wcet_moves = 0;
  for (std::uint64_t g = 0; g < 80; ++g) {
    const TaskGraph tg = gen::edge_case_task_graph(g);
    const std::size_t n = tg.job_count();
    if (n == 0) {
      continue;
    }
    const std::int64_t processors = 1 + static_cast<std::int64_t>(g % 3);
    for (const std::size_t stride : {std::size_t{1}, std::size_t{0}, n}) {
      sched::Evaluator inc(tg, processors);
      inc.set_checkpoint_stride(stride);
      std::mt19937_64 rng(g * 409 + stride);
      std::vector<JobId> current = schedule_priority(tg, PriorityHeuristic::kAlapEdf);
      sched::EvalScore cur = inc.evaluate_baseline(current);
      std::uniform_int_distribution<std::size_t> pick(0, n - 1);
      for (int mv = 0; mv < 15; ++mv) {
        const std::size_t i = pick(rng);
        const std::size_t j = pick(rng);
        const std::size_t lo = std::min(i, j);
        const std::size_t hi = std::max(i, j);
        const bool swap_move = mv % 2 == 0;
        std::vector<JobId> moved = current;
        apply_move(moved, i, j, swap_move);
        const sched::EvalScore fast = inc.evaluate_move(
            moved, lo, hi, swap_move ? sched::MoveKind::kSwap : sched::MoveKind::kRotate);
        const sched::EvalScore ref = testing::reference_score(tg, moved, processors);
        const std::string ctx = "edge graph " + std::to_string(g) + " M=" +
                                std::to_string(processors) + " stride " +
                                std::to_string(stride) + " move " + std::to_string(mv);
        ASSERT_EQ(fast.deadline_violations, ref.deadline_violations) << ctx;
        ASSERT_EQ(fast.makespan, ref.makespan) << ctx;
        ++moves;
        rational_moves += inc.uses_ticks() ? 0 : 1;
        zero_wcet_moves += has_zero_wcet_job(tg) ? 1 : 0;
        if (fast.better_than(cur)) {
          current = std::move(moved);
          cur = inc.evaluate_baseline(current);
        }
      }
    }
  }
  EXPECT_GT(moves, 0u);
  EXPECT_GT(rational_moves, 0u);
  EXPECT_GT(zero_wcet_moves, 0u);
}

TEST(EvaluatorPartition, EdgeCaseKernelMatchesPartitionedOracle) {
  // The assignment is round-robin over the process ids, so zero-WCET
  // processes are pinned like any other.
  std::size_t rational_graphs = 0;
  std::size_t zero_wcet_graphs = 0;
  for (std::uint64_t g = 0; g < 80; ++g) {
    const TaskGraph tg = gen::edge_case_task_graph(g);
    if (tg.job_count() == 0) {
      continue;
    }
    const std::int64_t processors = 1 + static_cast<std::int64_t>(g % 3);
    std::vector<ProcessorId> assignment;
    for (const Job& j : tg.jobs()) {
      while (assignment.size() <= j.process.value()) {
        assignment.push_back(
            ProcessorId(assignment.size() % static_cast<std::size_t>(processors)));
      }
    }
    sched::Evaluator kernel(tg, processors, assignment);
    rational_graphs += kernel.uses_ticks() ? 0 : 1;
    zero_wcet_graphs += has_zero_wcet_job(tg) ? 1 : 0;
    std::mt19937_64 rng(g * 131 + 5);
    const std::string context =
        "edge graph " + std::to_string(g) + " M=" + std::to_string(processors);
    for (int k = 0; k < 3; ++k) {
      const std::vector<JobId> order =
          k == 0 ? schedule_priority(tg, PriorityHeuristic::kAlapEdf)
                 : random_permutation(tg.job_count(), rng);
      const StaticSchedule ref =
          testing::partitioned_list_schedule(tg, assignment, order, processors);
      const sched::EvalScore fast = kernel.evaluate(order);
      EXPECT_EQ(fast.deadline_violations, ref.count_violations(tg).deadline)
          << context << " order " << k;
      EXPECT_EQ(fast.makespan, ref.makespan(tg)) << context << " order " << k;
      expect_identical_placements(kernel.materialize(order), ref,
                                  context + " order " + std::to_string(k));
    }
  }
  EXPECT_GT(rational_graphs, 0u);
  EXPECT_GT(zero_wcet_graphs, 0u);
}

TEST(EvaluatorIncremental, StatsOnAFixedMoveSequenceArePinned) {
  // How much work the incremental layer does is not part of any score, so
  // the differential suites cannot see a resume or a splice silently
  // turning into a full run. These totals were recorded on a fixed move
  // sequence and must not change unless the resume or splice rule does.
  sched::EvalStats total;
  for (std::uint64_t g = 0; g < 40; ++g) {
    const TaskGraph tg = g % 2 == 0 ? random_task_graph(g + 7000)
                                    : gen::edge_case_task_graph(g);
    const std::size_t n = tg.job_count();
    if (n == 0) {
      continue;
    }
    const std::int64_t processors = 1 + static_cast<std::int64_t>(g % 4);
    sched::Evaluator inc(tg, processors);
    std::mt19937_64 rng(g * 8191 + 3);
    std::vector<JobId> current = schedule_priority(tg, PriorityHeuristic::kAlapEdf);
    sched::EvalScore cur = inc.evaluate_baseline(current);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    for (int mv = 0; mv < 30; ++mv) {
      const std::size_t i = pick(rng);
      const std::size_t j = pick(rng);
      const bool swap_move = (rng() & 1U) == 0U;
      std::vector<JobId> moved = current;
      apply_move(moved, i, j, swap_move);
      const sched::EvalScore s =
          inc.evaluate_move(moved, std::min(i, j), std::max(i, j),
                            swap_move ? sched::MoveKind::kSwap : sched::MoveKind::kRotate);
      if (s.better_than(cur)) {
        current = std::move(moved);
        cur = inc.evaluate_baseline(current);
      }
    }
    total.full_evals += inc.stats().full_evals;
    total.incremental_evals += inc.stats().incremental_evals;
    total.resumed_evals += inc.stats().resumed_evals;
    total.spliced_evals += inc.stats().spliced_evals;
    total.starts_simulated += inc.stats().starts_simulated;
  }
  EXPECT_EQ(total.full_evals, 46u);
  EXPECT_EQ(total.incremental_evals, 1200u);
  EXPECT_EQ(total.resumed_evals, 814u);
  EXPECT_EQ(total.spliced_evals, 588u);
  EXPECT_EQ(total.starts_simulated, 5953u);
}

// ---------------------------------------------------------------------------
// The production climb (incremental kernel) walks the reference climb's
// trajectory: the same order, score, iterations and start point.
TEST(EvaluatorSearch, OptimizePriorityMatchesReferenceTrajectory) {
  for (const std::uint64_t g : {3ULL, 14ULL, 27ULL}) {
    const TaskGraph tg = random_task_graph(g);
    sched::StrategyOptions opts;
    opts.processors = 2;
    opts.max_iterations = 150;
    opts.restarts = 1;
    const LocalSearchResult ref = testing::reference_optimize_priority(tg, opts);
    const LocalSearchResult got = optimize_priority(tg, opts);
    const std::string context = "graph " + std::to_string(g);
    EXPECT_EQ(got.priority, ref.priority) << context;
    EXPECT_EQ(got.violations, ref.violations) << context;
    EXPECT_EQ(got.makespan, ref.makespan) << context;
    EXPECT_EQ(got.iterations_used, ref.iterations_used) << context;
    EXPECT_EQ(got.start_heuristic, ref.start_heuristic) << context;
    expect_identical_placements(got.schedule, ref.schedule, context);
  }
}

TEST(EvaluatorSearch, ParallelSearchTwoWorkersMatchReference) {
  // Two workers running candidates concurrently still pick the winner of
  // the serial reference search.
  const TaskGraph tg = random_task_graph(303);
  const sched::ParallelSearchOptions opts = search_options(2);
  const sched::ParallelSearchResult kernel = sched::parallel_search(tg, opts);
  expect_identical_winner(kernel, testing::reference_search(tg, opts),
                          "2 workers vs reference");
  EXPECT_GT(kernel.evals_incremental, 0u);
  EXPECT_GT(kernel.evals_full, 0u);
}

}  // namespace
}  // namespace fppn
