// The static-order online policy on the virtual platform (§IV):
// Prop. 4.1 (feasible schedule => deadlines met + real-time semantics
// implemented), robustness to actual execution times, sporadic
// false-marking, frame repetition and the overhead model.
#include "runtime/vm_runtime.hpp"

#include <gtest/gtest.h>

#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "engine/engine.hpp"
#include "gen/scenario.hpp"
#include "graph/algorithms.hpp"
#include "sched/search.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace {

struct Fig1Setup {
  apps::Fig1App app;
  DerivedTaskGraph derived;
  StaticSchedule schedule;

  static Fig1Setup make(std::int64_t processors = 2) {
    Fig1Setup s;
    s.app = apps::build_fig1();
    s.derived = derive_task_graph(s.app.net, s.app.fig3_wcets());
    s.schedule =
        testing::list_schedule(s.derived.graph, PriorityHeuristic::kAlapEdf, processors);
    EXPECT_TRUE(s.schedule.check_feasibility(s.derived.graph).feasible());
    return s;
  }

  [[nodiscard]] InputScripts inputs(std::int64_t frames) const {
    std::vector<double> samples;
    for (std::int64_t i = 0; i < frames + 2; ++i) {
      samples.push_back(static_cast<double>(i + 1));
    }
    return app.make_inputs(samples, {2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
  }
};

TEST(VmRuntime, Prop41FeasibleScheduleMeetsDeadlines) {
  const Fig1Setup s = Fig1Setup::make();
  RunOptions opts;
  opts.frames = 4;
  const RunResult r = run_static_order_vm(s.app.net, s.derived, s.schedule, opts,
                                          s.inputs(4), {});
  EXPECT_TRUE(r.met_all_deadlines());
  // CoefB never invoked: 2 server jobs skipped per frame.
  EXPECT_EQ(r.false_skips, 8u);
  EXPECT_EQ(r.jobs_executed, 4u * 8u);  // 10 jobs minus 2 skipped, x4 frames
}

TEST(VmRuntime, MatchesZeroDelayReferenceWithoutSporadics) {
  const Fig1Setup s = Fig1Setup::make();
  RunOptions opts;
  opts.frames = 3;
  const InputScripts in = s.inputs(3);
  const RunResult r = run_static_order_vm(s.app.net, s.derived, s.schedule, opts, in, {});
  const ZeroDelayResult ref =
      zero_delay_reference(s.app.net, s.derived.hyperperiod, 3, in, {});
  EXPECT_TRUE(r.histories.functionally_equal(ref.histories))
      << r.histories.diff(ref.histories, s.app.net);
}

TEST(VmRuntime, MatchesZeroDelayReferenceWithSporadics) {
  const Fig1Setup s = Fig1Setup::make();
  const std::int64_t frames = 4;
  // Keep invocations within the covered window span (the last server
  // subset of the run arrives at (frames-1)*H).
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::map<ProcessId, SporadicScript> scripts;
    scripts.emplace(s.app.coef_b,
                    SporadicScript::random(2, Duration::ms(700),
                                           Time::ms(200 * (frames - 1)), seed));
    RunOptions opts;
    opts.frames = frames;
    const InputScripts in = s.inputs(frames);
    const RunResult r =
        run_static_order_vm(s.app.net, s.derived, s.schedule, opts, in, scripts);
    const ZeroDelayResult ref =
        zero_delay_reference(s.app.net, s.derived.hyperperiod, frames, in, scripts);
    EXPECT_TRUE(r.histories.functionally_equal(ref.histories))
        << "seed " << seed << "\n"
        << r.histories.diff(ref.histories, s.app.net);
    EXPECT_TRUE(r.met_all_deadlines()) << "seed " << seed;
  }
}

TEST(VmRuntime, RobustToShorterActualTimes) {
  // §IV motivation: starts synchronize on invocations/predecessors, so
  // running faster than WCET cannot break precedence or determinism.
  const Fig1Setup s = Fig1Setup::make();
  RunOptions fast;
  fast.frames = 2;
  fast.actual_time = [](JobId id, std::int64_t frame) {
    return Duration::ms(5 + ((id.value() + static_cast<std::size_t>(frame)) % 7));
  };
  const InputScripts in = s.inputs(2);
  const RunResult quick = run_static_order_vm(s.app.net, s.derived, s.schedule, fast,
                                              in, {});
  RunOptions nominal;
  nominal.frames = 2;
  const RunResult slow = run_static_order_vm(s.app.net, s.derived, s.schedule, nominal,
                                             in, {});
  EXPECT_TRUE(quick.met_all_deadlines());
  EXPECT_TRUE(quick.histories.functionally_equal(slow.histories));
  EXPECT_LE(quick.span_end, slow.span_end);
}

TEST(VmRuntime, WcetOverrunMayMissButStaysDeterministic) {
  const Fig1Setup s = Fig1Setup::make();
  RunOptions overrun;
  overrun.frames = 2;
  overrun.actual_time = [](JobId, std::int64_t) { return Duration::ms(60); };
  const InputScripts in = s.inputs(2);
  const RunResult r =
      run_static_order_vm(s.app.net, s.derived, s.schedule, overrun, in, {});
  EXPECT_FALSE(r.met_all_deadlines());
  const ZeroDelayResult ref =
      zero_delay_reference(s.app.net, s.derived.hyperperiod, 2, in, {});
  EXPECT_TRUE(r.histories.functionally_equal(ref.histories))
      << "overruns must not corrupt the functional behavior";
}

TEST(VmRuntime, SporadicAtExactBoundaryHandledPerFig2) {
  // CoefB -> FilterB (p -> u): an invocation exactly at the subset
  // boundary b = 200 belongs to the (a, b] window of frame 1's subset.
  const Fig1Setup s = Fig1Setup::make();
  std::map<ProcessId, SporadicScript> scripts;
  scripts.emplace(s.app.coef_b,
                  SporadicScript({Time::ms(200)}, 2, Duration::ms(700)));
  RunOptions opts;
  opts.frames = 3;
  const RunResult r = run_static_order_vm(s.app.net, s.derived, s.schedule, opts,
                                          s.inputs(3), scripts);
  // One real invocation: 6 server slots minus 1 executed = 5 skips.
  EXPECT_EQ(r.false_skips, 5u);
  EXPECT_EQ(r.jobs_executed, 3u * 8u + 1u);
  const ZeroDelayResult ref = zero_delay_reference(s.app.net, s.derived.hyperperiod,
                                                   3, s.inputs(3), scripts);
  EXPECT_TRUE(r.histories.functionally_equal(ref.histories))
      << r.histories.diff(ref.histories, s.app.net);
}

TEST(VmRuntime, EarlySporadicInvocationMayStartBeforeBoundary) {
  // "For sporadic ones the invocation occurs either at time Ai or
  // earlier": an invocation early in its window lets the server job run
  // before its nominal arrival A_i when the processor is free. Observable
  // for subsets after the first (the frame itself opens at n*H).
  NetworkBuilder b;
  const ProcessId user = b.periodic("user", Duration::ms(100), Duration::ms(100),
                                    behavior([](JobContext& ctx) {
                                      (void)ctx.read("cfg");
                                    }));
  const ProcessId slow =
      b.periodic("slow", Duration::ms(200), Duration::ms(200), no_op_behavior());
  const ProcessId spor = b.sporadic("spor", 1, Duration::ms(150), Duration::ms(300),
                                    behavior([](JobContext& ctx) {
                                      ctx.write("cfg", Value{1.0});
                                    }));
  b.blackboard("cfg", spor, user);
  b.priority(spor, user);
  const Network net = std::move(b).build();
  DerivedTaskGraph derived = derive_task_graph(net, Duration::ms(10));
  ASSERT_EQ(derived.hyperperiod, Duration::ms(200));  // 2 subsets per frame
  const StaticSchedule schedule =
      testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, 1);
  ASSERT_TRUE(schedule.check_feasibility(derived.graph).feasible());

  // Invocation at t=10 falls in the (0, 100] window of subset 2 (A_i=100).
  std::map<ProcessId, SporadicScript> scripts;
  scripts.emplace(spor, SporadicScript({Time::ms(10)}, 1, Duration::ms(150)));
  RunOptions opts;
  opts.frames = 1;
  const RunResult r = run_static_order_vm(net, derived, schedule, opts, {}, scripts);
  bool found = false;
  for (const TraceEvent& e : r.trace.events()) {
    if (e.kind == TraceEventKind::kJobRun && e.label == "spor[2]") {
      EXPECT_LT(e.time, Time::ms(100)) << "should start before its arrival boundary";
      found = true;
    }
  }
  EXPECT_TRUE(found);
  (void)user;
  (void)slow;
}

TEST(VmRuntime, OverheadModelDelaysFrameStart) {
  const Fig1Setup s = Fig1Setup::make();
  RunOptions opts;
  opts.frames = 2;
  opts.overhead = OverheadModel{Duration::ms(41), Duration::ms(20), Duration::zero()};
  const RunResult r = run_static_order_vm(s.app.net, s.derived, s.schedule, opts,
                                          s.inputs(2), {});
  // No job of frame 0 starts before 41; none of frame 1 before 220.
  for (const TraceEvent& e : r.trace.events()) {
    if (e.kind != TraceEventKind::kJobRun) {
      continue;
    }
    EXPECT_GE(e.time, e.frame == 0 ? Time::ms(41) : Time::ms(220)) << e.label;
  }
  EXPECT_EQ(r.trace.of_kind(TraceEventKind::kOverhead).size(), 2u);
}

TEST(VmRuntime, FrameRepetitionKeepsPeriodicPhase) {
  const Fig1Setup s = Fig1Setup::make();
  RunOptions opts;
  opts.frames = 3;
  const RunResult r = run_static_order_vm(s.app.net, s.derived, s.schedule, opts,
                                          s.inputs(3), {});
  // InputA executes exactly once per frame, at or after n*200.
  int count = 0;
  for (const TraceEvent& e : r.trace.events()) {
    if (e.kind == TraceEventKind::kJobRun && e.label == "InputA[1]") {
      EXPECT_GE(e.time, Time::ms(200 * e.frame));
      EXPECT_LT(e.time, Time::ms(200 * (e.frame + 1)));
      ++count;
    }
  }
  EXPECT_EQ(count, 3);
}

TEST(VmRuntime, RejectsIncompleteSchedule) {
  const Fig1Setup s = Fig1Setup::make();
  StaticSchedule partial(s.derived.graph.job_count(), 2);
  partial.place(JobId(0), ProcessorId(0), Time::ms(0));
  EXPECT_THROW(
      run_static_order_vm(s.app.net, s.derived, partial, RunOptions{}, {}, {}),
      std::invalid_argument);
}

TEST(VmRuntime, RejectsBadOptions) {
  const Fig1Setup s = Fig1Setup::make();
  RunOptions opts;
  opts.frames = 0;
  EXPECT_THROW(run_static_order_vm(s.app.net, s.derived, s.schedule, opts, {}, {}),
               std::invalid_argument);
  RunOptions negative;
  negative.actual_time = [](JobId, std::int64_t) { return Duration::ms(-1); };
  EXPECT_THROW(
      run_static_order_vm(s.app.net, s.derived, s.schedule, negative, {}, {}),
      std::invalid_argument);
}

TEST(VmRuntime, TraceSummaryCountsConsistent) {
  const Fig1Setup s = Fig1Setup::make();
  RunOptions opts;
  opts.frames = 2;
  const RunResult r = run_static_order_vm(s.app.net, s.derived, s.schedule, opts,
                                          s.inputs(2), {});
  EXPECT_EQ(r.trace.executed_job_count(), r.jobs_executed);
  EXPECT_EQ(r.trace.false_skip_count(), r.false_skips);
  EXPECT_EQ(r.trace.deadline_miss_count(), r.misses.size());
  EXPECT_NE(r.trace.summary().find("jobs executed"), std::string::npos);
}

TEST(VmRuntime, FalseServerJobCompletesAfterItsPredecessors) {
  // A jittered FMS whose local-search winner puts a successor of a
  // 'false' server job (DopplerConfig → BCPConfig) ahead of that job's
  // own predecessor on the other processor. Transitive reduction removed
  // the direct edge, so only the false job orders the two: it must wait
  // for its predecessors, or the BCPData history diverges from the
  // zero-delay semantics (Prop. 2.1) with every deadline met.
  apps::FmsApp app = apps::build_fms(true);
  WcetMap wcets;
  wcets[app.sensor_input] = Duration::ratio_ms(51, 10);
  wcets[app.high_freq_bcp] = Duration::ratio_ms(54, 5);
  wcets[app.low_freq_bcp] = Duration::ratio_ms(157, 10);
  wcets[app.magn_declin] = Duration::ratio_ms(31, 5);
  wcets[app.performance] = Duration::ratio_ms(43, 5);
  wcets[app.anemo_config] = Duration::ratio_ms(11, 10);
  wcets[app.gps_config] = Duration::ratio_ms(6, 5);
  wcets[app.irs_config] = Duration::ratio_ms(9, 5);
  wcets[app.doppler_config] = Duration::ratio_ms(6, 5);
  wcets[app.bcp_config] = Duration::ratio_ms(13, 10);
  wcets[app.magn_declin_config] = Duration::ratio_ms(11, 10);
  wcets[app.performance_config] = Duration::ratio_ms(11, 10);
  const DerivedTaskGraph derived = derive_task_graph(app.net, wcets);
  engine::SearchConfig config;
  config.processors = 2;
  config.optimize = true;
  const engine::SolveReport report = engine::solve_graph(derived.graph, config);
  ASSERT_EQ(report.search.best.strategy, "local-search");
  constexpr std::int64_t kFrames = 10;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("command seed " + std::to_string(seed));
    const InputScripts inputs = app.make_inputs(kFrames * 50, seed);
    const auto commands =
        app.random_commands(Time() + derived.hyperperiod * Rational(kFrames - 1), seed);
    RunOptions opts;
    opts.frames = kFrames;
    const RunResult vm = run_static_order_vm(
        app.net, derived, report.search.best.schedule, opts, inputs, commands);
    EXPECT_TRUE(vm.met_all_deadlines());
    const ZeroDelayResult ref =
        zero_delay_reference(app.net, derived.hyperperiod, kFrames, inputs, commands);
    EXPECT_TRUE(vm.histories.functionally_equal(ref.histories))
        << vm.histories.diff(ref.histories, app.net);
  }
}

/// The reference walk order: a Digraph of the precedence edges plus the
/// same-processor chains, then topological_sort (smallest ready id first).
std::vector<std::string> digraph_walk(const TaskGraph& tg, const StaticSchedule& schedule) {
  Digraph combined(tg.job_count());
  for (const auto& [u, v] : tg.edges()) {
    combined.add_edge(NodeId(u.value()), NodeId(v.value()));
  }
  for (const auto& chain : schedule.per_processor_order()) {
    for (std::size_t pos = 1; pos < chain.size(); ++pos) {
      combined.add_edge(NodeId(chain[pos - 1].value()), NodeId(chain[pos].value()));
    }
  }
  const auto order = topological_sort(combined);
  EXPECT_TRUE(order.has_value());
  std::vector<std::string> names;
  for (const NodeId node : order.value_or(std::vector<NodeId>{})) {
    names.push_back(tg.job(JobId(node.value())).name);
  }
  return names;
}

/// The labels of one frame's job events (runs and 'false' skips), in
/// trace order.
std::vector<std::string> job_events_of_frame(const TimedTrace& trace, std::int64_t frame) {
  std::vector<std::string> names;
  for (const TraceEvent& e : trace.events()) {
    if (e.frame == frame &&
        (e.kind == TraceEventKind::kJobRun || e.kind == TraceEventKind::kFalseSkip)) {
      names.emplace_back(e.label);
    }
  }
  return names;
}

TEST(VmRuntime, PlanWalksTheDigraphTopologicalOrderOnGeneratedScenarios) {
  constexpr std::int64_t kFrames = 2;
  std::size_t runs = 0;
  std::size_t duplicate_chain_edges = 0;
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      DerivedTaskGraph derived;
      try {
        derived = derive_task_graph(s.net, s.wcets);
      } catch (const std::invalid_argument&) {
        continue;  // a scenario that does not derive has no schedule to run
      }
      const TaskGraph& tg = derived.graph;
      const auto scripts = gen::jittered_scripts(s.net, seed, kFrames, derived.hyperperiod);
      for (std::int64_t processors = 1; processors <= 3; ++processors) {
        SCOPED_TRACE(s.name + " on " + std::to_string(processors) + " processor(s)");
        const StaticSchedule schedule =
            testing::list_schedule(tg, PriorityHeuristic::kAlapEdf, processors);
        for (const auto& chain : schedule.per_processor_order()) {
          for (std::size_t pos = 1; pos < chain.size(); ++pos) {
            duplicate_chain_edges += tg.has_edge(chain[pos - 1], chain[pos]) ? 1 : 0;
          }
        }
        const std::vector<std::string> want = digraph_walk(tg, schedule);
        RunOptions opts;
        opts.frames = kFrames;
        const RunResult r = run_static_order_vm(s.net, derived, schedule, opts, {}, scripts);
        for (std::int64_t frame = 0; frame < kFrames; ++frame) {
          ASSERT_EQ(job_events_of_frame(r.trace, frame), want) << "frame " << frame;
        }
        EXPECT_EQ(r.span_end, r.trace.span_end());
        ++runs;
      }
    }
  }
  // Every family derives for some seed, and the chains repeat precedence
  // edges often enough that the count-once rule is exercised.
  EXPECT_GE(runs, 8u * 3u);
  EXPECT_GT(duplicate_chain_edges, 0u);
}

TEST(VmRuntime, RunningSpanEndEqualsTheTraceSpanEnd) {
  const apps::FmsApp app = apps::build_fms(true);
  const DerivedTaskGraph derived = derive_task_graph(app.net, app.default_wcets());
  constexpr std::int64_t kFrames = 4;
  const InputScripts inputs = app.make_inputs(kFrames * 50, 3);
  const auto commands =
      app.random_commands(Time() + derived.hyperperiod * Rational(kFrames - 1), 3);
  std::size_t missed_runs = 0;
  for (std::int64_t processors = 1; processors <= 3; ++processors) {
    SCOPED_TRACE(std::to_string(processors) + " processor(s)");
    const StaticSchedule schedule =
        testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, processors);
    // WCETs; the §V-A overhead model with a per-job sync cost; fractional
    // actual times that overrun some WCETs 40.5-fold plus 1/3 ms; both.
    for (int variant = 0; variant < 4; ++variant) {
      SCOPED_TRACE("variant " + std::to_string(variant));
      RunOptions opts;
      opts.frames = kFrames;
      if (variant % 2 == 1) {
        opts.overhead = OverheadModel::mppa_measured();
        opts.overhead.per_job_sync = Duration::ratio_ms(1, 7);
      }
      if (variant >= 2) {
        const TaskGraph& tg = derived.graph;
        opts.actual_time = [&tg](JobId id, std::int64_t frame) {
          const Duration wcet = tg.job(id).wcet;
          if ((id.value() + static_cast<std::size_t>(frame)) % 3 == 0) {
            return wcet * Rational(81, 2) + Duration::ratio_ms(1, 3);
          }
          return wcet * Rational(2, 3);
        };
      }
      const RunResult r = run_static_order_vm(app.net, derived, schedule, opts, inputs,
                                              commands);
      EXPECT_EQ(r.span_end, r.trace.span_end());
      missed_runs += r.met_all_deadlines() ? 0 : 1;
    }
  }
  EXPECT_GT(missed_runs, 0u);  // the overrunning variants miss deadlines
}

TEST(VmRuntime, ScheduleOrderAgainstPrecedenceKeepsItsMessage) {
  const Fig1Setup s = Fig1Setup::make();
  const TaskGraph& tg = s.derived.graph;
  const auto topo = tg.topological_order();
  ASSERT_TRUE(topo.has_value());
  ASSERT_GT(tg.edge_count(), 0u);
  // One processor walking the jobs in reverse topological order: every
  // precedence edge points against the chain.
  StaticSchedule reversed(tg.job_count(), 1);
  std::int64_t start = 0;
  for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
    reversed.place(*it, ProcessorId(0), Time::ms(start));
    start += 10;
  }
  try {
    (void)run_static_order_vm(s.app.net, s.derived, reversed, RunOptions{}, {}, {});
    FAIL() << "a cyclic walk order was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "vm runtime: schedule order conflicts with precedence (cycle)");
  }
}

}  // namespace
}  // namespace fppn
