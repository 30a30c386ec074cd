// The shared search context (sched/search_context.hpp). Every built-in
// candidate gives the same placements, score, detail and evaluation
// counts three ways: inside parallel_search on 1, 2 and 4 workers, where
// the whole plan shares one context; standalone, on a fresh context; and
// through the reference oracle (testing/reference_search.hpp), which
// shares nothing. Each heuristic slot equals Evaluator::evaluate and the
// naive list_schedule + count_violations, concurrent fills of one context
// agree, and a cyclic graph is rejected with the message it always got:
// the tick SP orders (sched/priorities.hpp) leave a cyclic graph to the
// Rational ones, which own the messages.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "gen/rng.hpp"
#include "gen/scenario.hpp"
#include "sched/evaluator.hpp"
#include "sched/parallel_search.hpp"
#include "sched/partitioned.hpp"
#include "sched/registry.hpp"
#include "sched/search_context.hpp"
#include "taskgraph/compiled_graph.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"
#include "testing/reference_search.hpp"
#include "graph_families.hpp"

namespace fppn {
namespace {

using CandidateKey = std::pair<std::string, std::uint64_t>;

/// Every candidate result a search produced, keyed by (strategy, seed).
struct Recorder {
  std::mutex mu;
  std::map<CandidateKey, sched::StrategyResult> results;
};

/// A built-in strategy that keeps a copy of each result it returns, so a
/// parallel_search run exposes every candidate, not only its winner.
class RecordingStrategy final : public sched::SchedulerStrategy {
 public:
  RecordingStrategy(std::unique_ptr<sched::SchedulerStrategy> inner, Recorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string description() const override { return inner_->description(); }
  [[nodiscard]] bool seedable() const override { return inner_->seedable(); }

  [[nodiscard]] sched::StrategyResult schedule(
      const sched::SearchContext& ctx, const sched::StrategyOptions& opts) const override {
    sched::StrategyResult result = inner_->schedule(ctx, opts);
    const std::lock_guard<std::mutex> lock(recorder_.mu);
    recorder_.results[{inner_->name(), opts.seed}] = result;
    return result;
  }

 private:
  std::unique_ptr<sched::SchedulerStrategy> inner_;
  Recorder& recorder_;
};

void expect_identical_schedules(const StaticSchedule& a, const StaticSchedule& b,
                                std::size_t jobs, const std::string& context) {
  ASSERT_EQ(a.job_count(), jobs) << context;
  ASSERT_EQ(b.job_count(), jobs) << context;
  for (std::size_t i = 0; i < jobs; ++i) {
    const JobId id{i};
    ASSERT_TRUE(a.is_placed(id)) << context << ", job " << i;
    ASSERT_TRUE(b.is_placed(id)) << context << ", job " << i;
    ASSERT_EQ(a.placement(id).processor, b.placement(id).processor)
        << context << ", job " << i;
    ASSERT_EQ(a.placement(id).start, b.placement(id).start) << context << ", job " << i;
  }
}

void expect_same_score(const sched::StrategyResult& a, const sched::StrategyResult& b,
                       const std::string& context) {
  EXPECT_EQ(a.deadline_violations, b.deadline_violations) << context;
  EXPECT_EQ(a.makespan, b.makespan) << context;
  EXPECT_EQ(a.feasible, b.feasible) << context;
}

/// The detail a built-in candidate reports, from the oracle's side: the
/// heuristic named by the strategy or selected by the seed, or the
/// reference climb's start point and iteration count.
std::string expected_detail(const sched::SearchCandidate& c,
                            const LocalSearchResult* reference_climb) {
  if (c.strategy == "local-search") {
    return "local search from " + to_string(reference_climb->start_heuristic) + ", " +
           std::to_string(reference_climb->iterations_used) + " iterations";
  }
  if (c.strategy == "partitioned-wfd") {
    const auto& heuristics = all_heuristics();
    return "partitioned WFD pinning, SP heuristic " +
           to_string(heuristics[static_cast<std::size_t>(c.seed % heuristics.size())]);
  }
  return "list schedule, SP heuristic " + c.strategy;
}

/// One graph of the differential, with the search options it runs under.
struct Case {
  std::string name;
  TaskGraph tg;
  sched::ParallelSearchOptions opts;
};

sched::ParallelSearchOptions options(std::int64_t processors, int seeds,
                                     std::uint64_t base_seed, int iterations) {
  sched::ParallelSearchOptions opts;
  opts.processors = processors;
  opts.seeds_per_strategy = seeds;
  opts.seed = base_seed;
  opts.max_iterations = iterations;
  opts.restarts = 1;
  return opts;
}

/// The paper's reduced-period FMS (812 jobs) with every process WCET
/// raised by k/10 ms, k in 0..9 drawn from `jitter`; jitter 0 is the
/// paper graph.
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

/// FMS (paper and 10 jittered variants), fig1, FFT and every generator
/// family on seeds 1-6. The FMS climbs run on a short budget: the oracle
/// scores every move with the O(n²) rescan. Four seeds on the paper FMS,
/// fig1 and FFT select every heuristic inside partitioned-wfd; the
/// variants and the families rotate the base seed instead.
std::vector<Case> differential_cases() {
  std::vector<Case> cases;
  for (std::uint64_t jitter = 0; jitter <= 10; ++jitter) {
    cases.push_back({"fms jitter " + std::to_string(jitter), fms_graph(jitter),
                     options(2, jitter == 0 ? 4 : 1, jitter + 1, 12)});
  }
  const apps::Fig1App fig1 = apps::build_fig1();
  cases.push_back({"fig1", derive_task_graph(fig1.net, fig1.fig3_wcets()).graph,
                   options(2, 4, 1, 400)});
  const apps::FftApp fft = apps::build_fft(8);
  cases.push_back(
      {"fft8", derive_task_graph(fft.net, fft.uniform_wcets(Duration::ratio_ms(40, 3))).graph,
       options(2, 4, 1, 400)});
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      cases.push_back({s.name, derive_task_graph(s.net, s.wcets).graph,
                       options(1 + static_cast<std::int64_t>(seed % 3), 2, seed, 200)});
    }
  }
  return cases;
}

TEST(SearchContext, EveryCandidateMatchesStandaloneAndReferenceOnAnyWorkerCount) {
  const sched::StrategyRegistry& builtins = sched::StrategyRegistry::global();
  for (const Case& c : differential_cases()) {
    const std::size_t jobs = c.tg.job_count();
    const std::vector<sched::SearchCandidate> plan =
        sched::enumerate_search_candidates(c.opts);

    // Inside one search: the plan shares one context.
    std::map<int, std::map<CandidateKey, sched::StrategyResult>> searched;
    for (const int workers : {1, 2, 4}) {
      Recorder recorder;
      sched::StrategyRegistry registry;
      for (const std::string& name : builtins.names()) {
        registry.add(name, [&builtins, &recorder, name] {
          return std::make_unique<RecordingStrategy>(builtins.create(name), recorder);
        });
      }
      sched::ParallelSearchOptions opts = c.opts;
      opts.workers = workers;
      (void)sched::parallel_search(c.tg, opts, registry);
      ASSERT_EQ(recorder.results.size(), plan.size()) << c.name;
      searched[workers] = std::move(recorder.results);
    }

    for (const sched::SearchCandidate& candidate : plan) {
      const std::string context =
          c.name + ", " + candidate.strategy + " seed " + std::to_string(candidate.seed);
      const sched::StrategyOptions sopts = sched::strategy_options_for(c.opts, candidate);
      const sched::StrategyResult standalone =
          builtins.create(candidate.strategy)->schedule(c.tg, sopts);

      // The oracle: the climb itself for local search (it also yields
      // the detail), the single-candidate reference search otherwise.
      sched::StrategyResult reference;
      std::optional<LocalSearchResult> climb;
      if (candidate.strategy == "local-search") {
        climb = testing::reference_optimize_priority(c.tg, sopts);
        reference.schedule = climb->schedule;
        sched::finalize_result(c.tg, reference);
      } else {
        sched::ParallelSearchOptions single = c.opts;
        single.strategies = {candidate.strategy};
        single.seeds_per_strategy = 1;
        single.seed = candidate.seed;
        reference = testing::reference_search(c.tg, single).best;
      }

      EXPECT_EQ(standalone.detail, expected_detail(candidate, climb ? &*climb : nullptr))
          << context;
      expect_same_score(standalone, reference, context + " vs reference");
      expect_identical_schedules(standalone.schedule, reference.schedule, jobs,
                                 context + " vs reference");
      for (const auto& [workers, results] : searched) {
        const std::string where = context + ", " + std::to_string(workers) + " worker(s)";
        const sched::StrategyResult& got = results.at({candidate.strategy, candidate.seed});
        EXPECT_EQ(got.detail, standalone.detail) << where;
        expect_same_score(got, standalone, where);
        EXPECT_EQ(got.full_evals, standalone.full_evals) << where;
        EXPECT_EQ(got.incremental_evals, standalone.incremental_evals) << where;
        EXPECT_EQ(got.spliced_evals, standalone.spliced_evals) << where;
        expect_identical_schedules(got.schedule, standalone.schedule, jobs, where);
      }
    }
  }
}

TEST(SearchContext, SlotsMatchTheKernelAndTheNaiveScheduler) {
  for (const Case& c : differential_cases()) {
    const std::int64_t m = c.opts.processors;
    const sched::SearchContext ctx(c.tg, m);
    sched::Evaluator kernel(c.tg, m);
    for (const PriorityHeuristic h : all_heuristics()) {
      const std::string context = c.name + ", " + to_string(h);
      const sched::HeuristicRun& run = ctx.heuristic(h);
      EXPECT_EQ(run.order, schedule_priority(c.tg, h)) << context;
      const sched::EvalScore score = kernel.evaluate(run.order);
      EXPECT_EQ(run.score.deadline_violations, score.deadline_violations) << context;
      EXPECT_EQ(run.score.makespan, score.makespan) << context;
      const StaticSchedule naive = testing::list_schedule(c.tg, run.order, m);
      EXPECT_EQ(run.score.makespan, naive.makespan(c.tg)) << context;
      EXPECT_EQ(run.score.deadline_violations, naive.count_violations(c.tg).deadline)
          << context;
      expect_identical_schedules(run.schedule, naive, c.tg.job_count(), context);
      EXPECT_EQ(&ctx.heuristic(h), &run) << context << ": the slot is filled once";
    }
  }
}

TEST(SearchContext, ConcurrentFillsSeeIdenticalSlots) {
  const TaskGraph tg = fms_graph(3);
  const sched::SearchContext serial(tg, 2);
  for (int round = 0; round < 4; ++round) {
    const sched::SearchContext shared(tg, 2);
    constexpr int kThreads = 4;
    std::vector<std::vector<const sched::HeuristicRun*>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread starts from a different heuristic, so every slot
        // has a thread racing to fill it while others wait on it.
        const auto& heuristics = all_heuristics();
        seen[static_cast<std::size_t>(t)].resize(heuristics.size());
        for (std::size_t k = 0; k < heuristics.size(); ++k) {
          const std::size_t i = (k + static_cast<std::size_t>(t)) % heuristics.size();
          seen[static_cast<std::size_t>(t)][i] = &shared.heuristic(heuristics[i]);
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (std::size_t i = 0; i < all_heuristics().size(); ++i) {
      const sched::HeuristicRun& want = serial.heuristic(all_heuristics()[i]);
      for (int t = 0; t < kThreads; ++t) {
        const sched::HeuristicRun& got = *seen[static_cast<std::size_t>(t)][i];
        EXPECT_EQ(&got, seen[0][i]) << "thread " << t << ": one slot per heuristic";
        EXPECT_EQ(got.order, want.order);
        EXPECT_EQ(got.score.deadline_violations, want.score.deadline_violations);
        EXPECT_EQ(got.score.makespan, want.score.makespan);
        expect_identical_schedules(got.schedule, want.schedule, tg.job_count(),
                                   "thread " + std::to_string(t));
      }
    }
  }
}

Job make_job(const std::string& name, std::size_t process) {
  Job j;
  j.process = ProcessId{process};
  j.arrival = Time::ms(0);
  j.deadline = Time::ms(50);
  j.wcet = Duration::ms(5);
  j.name = name;
  return j;
}

/// a -> b, and a cycle c -> d -> e -> c no source reaches.
TaskGraph cyclic_graph() {
  TaskGraph tg(Duration::ms(100));
  const JobId a = tg.add_job(make_job("a", 0));
  const JobId b = tg.add_job(make_job("b", 1));
  const JobId c = tg.add_job(make_job("c", 2));
  const JobId d = tg.add_job(make_job("d", 3));
  const JobId e = tg.add_job(make_job("e", 4));
  tg.add_edge(a, b);
  tg.add_edge(c, d);
  tg.add_edge(d, e);
  tg.add_edge(e, c);
  return tg;
}

template <class F>
std::string invalid_argument_message(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "<no std::invalid_argument>";
}

TEST(SearchContext, CompiledAcyclicityFlagMatchesTheGraph) {
  EXPECT_TRUE(CompiledTaskGraph::compile(TaskGraph()).is_acyclic());
  const TaskGraph cyclic = cyclic_graph();
  ASSERT_FALSE(cyclic.is_acyclic());
  EXPECT_FALSE(CompiledTaskGraph::compile(cyclic).is_acyclic());

  TaskGraph two_cycle(Duration::ms(100));
  const JobId u = two_cycle.add_job(make_job("u", 0));
  const JobId v = two_cycle.add_job(make_job("v", 1));
  two_cycle.add_edge(u, v);
  two_cycle.add_edge(v, u);
  EXPECT_FALSE(CompiledTaskGraph::compile(two_cycle).is_acyclic());

  for (const Case& c : differential_cases()) {
    EXPECT_EQ(CompiledTaskGraph::compile(c.tg).is_acyclic(), c.tg.is_acyclic()) << c.name;
    EXPECT_TRUE(c.tg.is_acyclic()) << c.name;
  }
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const TaskGraph tg = testing::layered_task_graph(seed);
    EXPECT_TRUE(CompiledTaskGraph::compile(tg).is_acyclic()) << "layered " << seed;
  }
}

TEST(SearchContext, CyclicGraphIsRejectedWithTheMessagesItAlwaysGot) {
  const TaskGraph tg = cyclic_graph();
  const std::string kEvaluator = "evaluator: task graph is cyclic";

  // The kernel, on its own view or a shared one, in both modes.
  EXPECT_EQ(invalid_argument_message([&] { sched::Evaluator kernel(tg, 2); }), kEvaluator);
  const auto shared =
      std::make_shared<const CompiledTaskGraph>(CompiledTaskGraph::compile(tg));
  EXPECT_EQ(invalid_argument_message([&] { sched::Evaluator kernel(shared, 2); }),
            kEvaluator);
  const std::vector<ProcessorId> pinned(5, ProcessorId(0));
  EXPECT_EQ(invalid_argument_message([&] { sched::Evaluator kernel(tg, 2, pinned); }),
            kEvaluator);
  EXPECT_EQ(
      invalid_argument_message([&] { sched::Evaluator kernel(tg, shared, 2, pinned); }),
      kEvaluator);

  // Every standalone strategy: the two longest-path heuristics fail in
  // their own analysis before any kernel is built.
  const std::map<std::string, std::string> expected = {
      {"alap-edf", "alap_times: task graph is cyclic"},
      {"b-level", "b_levels: task graph is cyclic"},
      {"deadline-monotonic", kEvaluator},
      {"arrival-order", kEvaluator},
      {"local-search", kEvaluator},
      {"partitioned-wfd", kEvaluator},
  };
  sched::StrategyOptions sopts;
  sopts.processors = 2;
  for (const auto& [name, message] : expected) {
    const auto strategy = sched::StrategyRegistry::global().create(name);
    EXPECT_EQ(invalid_argument_message([&] { (void)strategy->schedule(tg, sopts); }),
              message)
        << name;
    // A second call on one context meets the same failure: a slot whose
    // fill threw keeps the exception.
    const sched::SearchContext ctx(tg, 2);
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_EQ(invalid_argument_message([&] { (void)strategy->schedule(ctx, sopts); }),
                message)
          << name << ", attempt " << attempt;
    }
  }

  // parallel_search rethrows the lowest-indexed candidate's error (the
  // registry's first name, alap-edf) on any worker count, 0 being the
  // hardware concurrency.
  for (const int workers : {0, 1, 2, 3, 4, 8}) {
    sched::ParallelSearchOptions opts;
    opts.processors = 2;
    opts.workers = workers;
    opts.seeds_per_strategy = 2;
    opts.max_iterations = 10;
    EXPECT_EQ(invalid_argument_message([&] { (void)sched::parallel_search(tg, opts); }),
              "alap_times: task graph is cyclic")
        << workers << " worker(s)";
  }
}

}  // namespace
}  // namespace fppn
