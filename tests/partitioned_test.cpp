// Partitioned scheduling (process-to-processor pinning, the paper's
// "multiple process automata mapped to the same thread according to
// static mapping mu_i").
#include "sched/partitioned.hpp"

#include <gtest/gtest.h>

#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "gen/scenario.hpp"
#include "runtime/vm_runtime.hpp"
#include "sched/evaluator.hpp"
#include "sched/parallel_search.hpp"
#include "sched/registry.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"
#include "graph_families.hpp"

namespace fppn {
namespace {

/// A registered strategy's schedule of `tg` on `processors` processors.
/// partitioned-wfd schedules all_heuristics()[seed % 4] inside its
/// partition, so seed 0 is alap-edf.
sched::StrategyResult run_strategy(const std::string& name, const TaskGraph& tg,
                                   std::int64_t processors, std::uint64_t seed = 0) {
  sched::StrategyOptions opts;
  opts.processors = processors;
  opts.seed = seed;
  return sched::StrategyRegistry::global().create(name)->schedule(tg, opts);
}

TEST(Partitioned, AllJobsOfAProcessShareOneProcessor) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const sched::StrategyResult result = run_strategy("partitioned-wfd", derived.graph, 3);
  const std::vector<ProcessorId> assignment =
      wfd_assignment(derived.graph, app.net.process_count(), 3);
  for (std::size_t i = 0; i < app.net.process_count(); ++i) {
    const auto jobs = derived.graph.jobs_of(ProcessId{i});
    for (const JobId j : jobs) {
      EXPECT_EQ(result.schedule.placement(j).processor, assignment[i])
          << derived.graph.job(j).name;
    }
  }
}

TEST(Partitioned, Fig1FeasibleOnThreeProcessors) {
  // Pinning removes migration freedom; the Fig. 3 graph still fits.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const sched::StrategyResult result = run_strategy("partitioned-wfd", derived.graph, 3);
  EXPECT_TRUE(result.feasible)
      << result.schedule.check_feasibility(derived.graph).to_string(derived.graph);
}

TEST(Partitioned, NeverBeatsGlobalScheduling) {
  // Partitioning is a restriction of global list scheduling: when both
  // are feasible, the global makespan is never worse than the best we
  // found here... but at minimum it must satisfy Def. 3.2 whenever it
  // claims feasibility — and an infeasible global instance can never
  // become feasible by pinning (pinning only removes options, for the
  // same SP order).
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  for (const std::int64_t m : {2, 3, 4}) {
    const sched::StrategyResult pinned = run_strategy("partitioned-wfd", derived.graph, m);
    if (pinned.feasible) {
      const sched::StrategyResult global = run_strategy("alap-edf", derived.graph, m);
      EXPECT_TRUE(global.feasible) << m;
    }
  }
}

TEST(Partitioned, FmsSingleProcessorDegeneratesToGlobal) {
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const sched::StrategyResult result = run_strategy("partitioned-wfd", derived.graph, 1);
  EXPECT_TRUE(result.feasible);
  for (const ProcessorId p : wfd_assignment(derived.graph, app.net.process_count(), 1)) {
    if (p.is_valid()) {
      EXPECT_EQ(p, ProcessorId(0));
    }
  }
}

TEST(Partitioned, VmRunsPartitionedScheduleDeterministically) {
  // The online policy + the paper's thread-style mapping: histories still
  // equal the zero-delay reference.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const sched::StrategyResult result = run_strategy("partitioned-wfd", derived.graph, 3);
  ASSERT_TRUE(result.feasible);
  const InputScripts inputs = app.make_inputs({5, 6, 7, 8}, {1.5});
  std::map<ProcessId, SporadicScript> scripts;
  scripts.emplace(app.coef_b, SporadicScript({Time::ms(110)}, 2, Duration::ms(700)));
  RunOptions opts;
  opts.frames = 2;
  const RunResult run = run_static_order_vm(app.net, derived, result.schedule, opts,
                                            inputs, scripts);
  EXPECT_TRUE(run.met_all_deadlines());
  const ZeroDelayResult ref =
      zero_delay_reference(app.net, derived.hyperperiod, 2, inputs, scripts);
  EXPECT_TRUE(run.histories.functionally_equal(ref.histories))
      << run.histories.diff(ref.histories, app.net);
}

TEST(Partitioned, ExplicitAssignmentRespected) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  std::vector<ProcessorId> everyone_on_one(app.net.process_count(), ProcessorId(1));
  const StaticSchedule s = testing::partitioned_list_schedule(
      derived.graph, everyone_on_one,
      schedule_priority(derived.graph, PriorityHeuristic::kAlapEdf), 2);
  // Serialized on M2: 250 ms of work; mutex/precedence must still hold.
  const auto report = s.check_feasibility(derived.graph);
  bool mutex_ok = true;
  for (const Violation& v : report.violations) {
    mutex_ok &= v.kind == ViolationKind::kDeadline;  // only deadline misses
  }
  EXPECT_TRUE(mutex_ok);
  EXPECT_EQ(s.makespan(derived.graph), Time::ms(250));
}

TEST(PartitionedStrategy, RegisteredInGlobalRegistry) {
  auto& registry = sched::StrategyRegistry::global();
  ASSERT_TRUE(registry.contains("partitioned-wfd"));
  const auto strategy = registry.create("partitioned-wfd");
  EXPECT_EQ(strategy->name(), "partitioned-wfd");
  EXPECT_TRUE(strategy->seedable());
  EXPECT_FALSE(strategy->description().empty());
}

TEST(PartitionedStrategy, FeasibleOnFig7FmsWorkload) {
  // The paper's FMS case study (§V-B, 812 jobs) through the registry: the
  // partitioned strategy must find a feasible static mapping mu_i.
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  sched::StrategyOptions opts;
  opts.processors = 3;
  opts.seed = 1;
  const auto result =
      sched::StrategyRegistry::global().create("partitioned-wfd")->schedule(
          derived.graph, opts);
  EXPECT_TRUE(result.feasible)
      << result.schedule.check_feasibility(derived.graph).to_string(derived.graph);
  EXPECT_EQ(result.strategy, "partitioned-wfd");
}

TEST(PartitionedStrategy, PinsEveryProcessViaRegistry) {
  // The defining property must survive the strategy wrapper: all jobs of a
  // process share one processor.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::StrategyOptions opts;
  opts.processors = 3;
  const auto result =
      sched::StrategyRegistry::global().create("partitioned-wfd")->schedule(
          derived.graph, opts);
  for (std::size_t p = 0; p < app.net.process_count(); ++p) {
    const auto jobs = derived.graph.jobs_of(ProcessId{p});
    for (std::size_t j = 1; j < jobs.size(); ++j) {
      EXPECT_EQ(result.schedule.placement(jobs[j]).processor,
                result.schedule.placement(jobs[0]).processor)
          << derived.graph.job(jobs[j]).name;
    }
  }
}

TEST(PartitionedStrategy, AssignmentStableAcrossSeeds) {
  // The seed varies only the SP heuristic inside the fixed partition; the
  // WFD process-to-processor assignment itself is seed-independent, so
  // every seed pins each process to the same processor.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const auto strategy = sched::StrategyRegistry::global().create("partitioned-wfd");

  std::vector<ProcessorId> reference;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sched::StrategyOptions opts;
    opts.processors = 3;
    opts.seed = seed;
    const auto result = strategy->schedule(derived.graph, opts);
    std::vector<ProcessorId> assignment(app.net.process_count());
    for (std::size_t p = 0; p < app.net.process_count(); ++p) {
      const auto jobs = derived.graph.jobs_of(ProcessId{p});
      if (!jobs.empty()) {
        assignment[p] = result.schedule.placement(jobs[0]).processor;
      }
    }
    if (seed == 0) {
      reference = assignment;
    } else {
      EXPECT_EQ(assignment, reference) << "seed " << seed;
    }
  }
}

TEST(Partitioned, ZeroDemandProcessesStillGetAProcessor) {
  // A process whose jobs all have zero WCET has jobs; only a process with
  // no jobs may stay unassigned. The generator's zero-WCET chains put
  // each job in its own process, so about half of them have zero demand.
  std::size_t zero_demand = 0;
  for (std::uint64_t g = 0; g < 40; ++g) {
    const TaskGraph tg = testing::edge_case_task_graph(g);
    std::size_t process_count = 0;
    for (const Job& j : tg.jobs()) {
      process_count = std::max(process_count, j.process.value() + 1);
    }
    for (const std::int64_t m : {1, 2, 3}) {
      const std::vector<ProcessorId> assignment = wfd_assignment(tg, process_count, m);
      for (const Job& j : tg.jobs()) {
        EXPECT_TRUE(assignment[j.process.value()].is_valid())
            << "edge graph " << g << " M=" << m << " job " << j.name;
        zero_demand += j.wcet.is_zero() && m == 1 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(zero_demand, 0u);
}

TEST(PartitionedStrategy, DefaultSearchCompletesOnEdgeCaseGraphs) {
  // The default search runs partitioned-wfd among every strategy; a
  // zero-demand process must not make it throw.
  for (std::uint64_t g = 0; g < 40; ++g) {
    const TaskGraph tg = testing::edge_case_task_graph(g);
    if (tg.job_count() == 0) {
      continue;
    }
    sched::ParallelSearchOptions opts;
    opts.workers = 2;
    sched::ParallelSearchResult result;
    EXPECT_NO_THROW(result = sched::parallel_search(tg, opts)) << "edge graph " << g;
    ASSERT_EQ(result.best.schedule.job_count(), tg.job_count()) << "edge graph " << g;
    for (std::size_t i = 0; i < tg.job_count(); ++i) {
      EXPECT_TRUE(result.best.schedule.is_placed(JobId(i))) << "edge graph " << g;
    }
  }
}

TEST(PartitionedStrategy, ParticipatesInParallelSearchByDefault) {
  // With an empty strategy list, the search enumerates the whole registry —
  // restricting it to partitioned-wfd must also work and tag the result.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::ParallelSearchOptions opts;
  opts.processors = 3;
  opts.strategies = {"partitioned-wfd"};
  opts.seeds_per_strategy = 4;
  const auto result = sched::parallel_search(derived.graph, opts);
  EXPECT_EQ(result.best.strategy, "partitioned-wfd");
  EXPECT_EQ(result.candidates, 4u);
  EXPECT_TRUE(result.best.feasible);
}

void expect_same_placements(const TaskGraph& tg, const StaticSchedule& a,
                            const StaticSchedule& b, const std::string& context) {
  ASSERT_EQ(a.job_count(), b.job_count()) << context;
  for (std::size_t i = 0; i < a.job_count(); ++i) {
    const JobId id(i);
    ASSERT_EQ(a.is_placed(id), b.is_placed(id)) << context << " " << tg.job(id).name;
    if (!a.is_placed(id)) {
      continue;
    }
    EXPECT_EQ(a.placement(id).processor, b.placement(id).processor)
        << context << " " << tg.job(id).name;
    EXPECT_EQ(a.placement(id).start, b.placement(id).start)
        << context << " " << tg.job(id).name;
  }
}

TEST(Partitioned, KernelAndNaivePipelinesBitIdentical) {
  // The partitioned-wfd strategy (the partition-constrained evaluator)
  // vs the reference O(n²) rescan under the same WFD assignment and SP
  // order: same placements, feasibility and makespan.
  const auto fig1 = apps::build_fig1();
  const auto fms = apps::build_fms();
  const auto d1 = derive_task_graph(fig1.net, fig1.fig3_wcets());
  const auto d2 = derive_task_graph(fms.net, fms.default_wcets());
  struct Case {
    const TaskGraph* tg;
    std::size_t processes;
    const char* name;
  };
  const Case cases[] = {{&d1.graph, fig1.net.process_count(), "fig1"},
                        {&d2.graph, fms.net.process_count(), "fms"}};
  for (const Case& c : cases) {
    for (const std::int64_t m : {1, 2, 3, 4}) {
      for (std::uint64_t seed = 0; seed < all_heuristics().size(); ++seed) {
        const PriorityHeuristic h = all_heuristics()[seed];
        const sched::StrategyResult fast = run_strategy("partitioned-wfd", *c.tg, m, seed);
        const StaticSchedule ref = testing::partitioned_list_schedule(
            *c.tg, wfd_assignment(*c.tg, c.processes, m), schedule_priority(*c.tg, h), m);
        const std::string context = std::string(c.name) + " M" + std::to_string(m) +
                                    " " + to_string(h);
        EXPECT_EQ(fast.detail, "partitioned WFD pinning, SP heuristic " + to_string(h))
            << context;
        EXPECT_EQ(fast.feasible, ref.count_violations(*c.tg).feasible()) << context;
        EXPECT_EQ(fast.makespan, ref.makespan(*c.tg)) << context;
        expect_same_placements(*c.tg, fast.schedule, ref, context);
      }
    }
  }
}

TEST(Partitioned, SchedulerReuseMatchesPerCallPipeline) {
  // One partition-constrained evaluator scheduling many orders must be
  // bit-identical to a fresh partitioned_list_schedule per order — the
  // reuse the partitioned-wfd strategy leans on across search seeds.
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const std::vector<ProcessorId> assignment =
      wfd_assignment(derived.graph, app.net.process_count(), 3);
  sched::Evaluator kernel(derived.graph, 3, assignment);
  EXPECT_EQ(kernel.processor_count(), 3);
  EXPECT_TRUE(kernel.partition_mode());
  for (const PriorityHeuristic h : all_heuristics()) {
    const std::vector<JobId> order = schedule_priority(derived.graph, h);
    const StaticSchedule ref =
        testing::partitioned_list_schedule(derived.graph, assignment, order, 3);
    expect_same_placements(derived.graph, kernel.materialize(order), ref,
                           "reuse " + to_string(h));
    // Score-only evaluation agrees with the materialized schedule.
    const sched::EvalScore score = kernel.evaluate(order);
    EXPECT_EQ(score.deadline_violations, ref.count_violations(derived.graph).deadline)
        << to_string(h);
    EXPECT_EQ(score.makespan, ref.makespan(derived.graph)) << to_string(h);
  }
}

TEST(Partitioned, InvalidInputsRejected) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  EXPECT_THROW((void)wfd_assignment(derived.graph, app.net.process_count(), 0),
               std::invalid_argument);
  EXPECT_THROW((void)wfd_assignment(derived.graph, 2, 2), std::invalid_argument);
  std::vector<ProcessorId> unassigned(app.net.process_count());
  EXPECT_THROW(
      testing::partitioned_list_schedule(
          derived.graph, unassigned,
          schedule_priority(derived.graph, PriorityHeuristic::kAlapEdf), 2),
      std::invalid_argument);
}

}  // namespace
}  // namespace fppn
