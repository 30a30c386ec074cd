// The pipelined-scheduling extension (derivation option `unfolding`):
// footnote 5 of the paper restricts scheduling to one non-pipelined frame
// and truncates deadlines to H; unfolding U > 1 schedules U hyperperiods
// together so deadlines beyond H survive and frames can overlap.
#include <gtest/gtest.h>

#include "apps/fig1.hpp"
#include "graph/algorithms.hpp"
#include "runtime/vm_runtime.hpp"
#include "sched/registry.hpp"
#include "sched/search.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace {

/// The alap-edf strategy's schedule of `tg` on `processors` processors.
sched::StrategyResult alap_edf(const TaskGraph& tg, std::int64_t processors) {
  sched::StrategyOptions opts;
  opts.processors = processors;
  return sched::StrategyRegistry::global().create("alap-edf")->schedule(tg, opts);
}

/// A two-process network where the producer's deadline extends past its
/// period (d > T is explicitly allowed: "we do not put any restrictions on
/// periods and deadlines"): T = 100, d = 250.
Network deep_pipeline() {
  NetworkBuilder b;
  const ProcessId stage1 = b.periodic("stage1", Duration::ms(100), Duration::ms(250),
                                      no_op_behavior());
  const ProcessId stage2 = b.periodic("stage2", Duration::ms(100), Duration::ms(250),
                                      no_op_behavior());
  b.fifo("q", stage1, stage2);
  b.priority(stage1, stage2);
  return std::move(b).build();
}

TEST(Unfolding, FactorScalesFrameAndJobCount) {
  const auto app = apps::build_fig1();
  DerivationOptions opts;
  opts.unfolding = 3;
  const auto derived = derive_task_graph(app.net, app.fig3_wcets(), opts);
  EXPECT_EQ(derived.hyperperiod, Duration::ms(600));
  EXPECT_EQ(derived.graph.job_count(), 30u);  // 3x the Fig. 3 graph
  // Second-hyperperiod jobs exist and arrive in [200, 400).
  const auto id = derived.graph.find("InputA[2]");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(derived.graph.job(*id).arrival, Time::ms(200));
}

TEST(Unfolding, InvalidFactorRejected) {
  const auto app = apps::build_fig1();
  DerivationOptions opts;
  opts.unfolding = 0;
  EXPECT_THROW(derive_task_graph(app.net, app.fig3_wcets(), opts),
               std::invalid_argument);
}

TEST(Unfolding, NonPipelinedTruncationArtificiallyTightens) {
  // U = 1: the d = 250 deadline is truncated to H = 100, making the
  // 70+70 ms chain infeasible on any processor count (window violation).
  const Network net = deep_pipeline();
  WcetMap wcets;
  wcets.emplace(*net.find_process("stage1"), Duration::ms(70));
  wcets.emplace(*net.find_process("stage2"), Duration::ms(70));
  const auto folded = derive_task_graph(net, wcets);
  EXPECT_FALSE(check_necessary_condition(folded.graph, 8).holds());
  EXPECT_EQ(min_processors(folded.graph, 8).processors, 0);
}

TEST(Unfolding, FpSerializationLimitsPipeliningWithoutBuffering) {
  // The deeper finding behind footnote 5 and the paper's future work
  // ("we plan to support buffering and pipelining"): the §III-A edge rule
  // orders EVERY pair of FP-related jobs, so stage2[k] -> stage1[k+1] is a
  // precedence edge — successive hyperperiods of a producer/consumer pair
  // can never overlap, no matter the unfolding factor or deadline slack.
  // Pipelining requires relaxing the single-slot channel mutual exclusion
  // (i.e. buffering), not just longer frames.
  const Network net = deep_pipeline();
  WcetMap wcets;
  wcets.emplace(*net.find_process("stage1"), Duration::ms(70));
  wcets.emplace(*net.find_process("stage2"), Duration::ms(70));
  DerivationOptions opts;
  opts.unfolding = 5;
  opts.truncate_deadlines = false;  // even with full deadline slack
  const auto unfolded = derive_task_graph(net, wcets, opts);
  EXPECT_EQ(unfolded.graph.job_count(), 10u);
  // The serialization edge exists for every k...
  for (std::int64_t k = 1; k < 5; ++k) {
    const auto s2 = unfolded.graph.find("stage2[" + std::to_string(k) + "]");
    const auto s1 = unfolded.graph.find("stage1[" + std::to_string(k + 1) + "]");
    ASSERT_TRUE(s2.has_value());
    ASSERT_TRUE(s1.has_value());
    const Reachability reach(unfolded.graph.precedence());
    EXPECT_TRUE(reach.reaches(NodeId(s2->value()), NodeId(s1->value())));
  }
  // ... so 140 ms of serialized work per 100 ms period diverges: the
  // necessary condition fails on ANY processor count.
  EXPECT_FALSE(check_necessary_condition(unfolded.graph, 64).holds());
  EXPECT_EQ(min_processors(unfolded.graph, 8).processors, 0);
}

TEST(Unfolding, InteriorServerDeadlinesEscapeTruncation) {
  // At U = 1, CoefB's corrected 500 ms deadline is truncated to H = 200
  // (Fig. 3). At U = 3 only the final subset is clipped by the super-frame
  // edge; interior subsets keep the full correction.
  const auto app = apps::build_fig1();
  DerivationOptions opts;
  opts.unfolding = 3;
  const auto derived = derive_task_graph(app.net, app.fig3_wcets(), opts);
  const auto jobs = derived.graph.jobs_of(app.coef_b);
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(derived.graph.job(jobs[0]).deadline, Time::ms(500));   // 0 + 500
  EXPECT_EQ(derived.graph.job(jobs[2]).deadline, Time::ms(600));   // min(600, 700)
  EXPECT_EQ(derived.graph.job(jobs[4]).deadline, Time::ms(600));   // min(600, 900)
  // Reference: the U = 1 derivation clips the very first subset already.
  const auto folded = derive_task_graph(app.net, app.fig3_wcets());
  EXPECT_EQ(folded.graph.job(folded.graph.jobs_of(app.coef_b)[0]).deadline,
            Time::ms(200));
}

TEST(Unfolding, VmRunsUnfoldedFramesCorrectly) {
  // The online policy treats the super-frame as its frame: running U = 2
  // unfolded for 2 frames equals U = 1 for 4 frames functionally.
  const auto app = apps::build_fig1();
  const InputScripts inputs =
      app.make_inputs({1, 2, 3, 4, 5, 6}, {2.0, 3.0});

  DerivationOptions unfold2;
  unfold2.unfolding = 2;
  const auto d2 = derive_task_graph(app.net, app.fig3_wcets(), unfold2);
  const auto a2 = alap_edf(d2.graph, 2);
  ASSERT_TRUE(a2.feasible);
  RunOptions r2;
  r2.frames = 2;
  const RunResult run2 =
      run_static_order_vm(app.net, d2, a2.schedule, r2, inputs, {});

  const auto d1 = derive_task_graph(app.net, app.fig3_wcets());
  const auto a1 = alap_edf(d1.graph, 2);
  RunOptions r1;
  r1.frames = 4;
  const RunResult run1 =
      run_static_order_vm(app.net, d1, a1.schedule, r1, inputs, {});

  EXPECT_TRUE(run2.histories.functionally_equal(run1.histories))
      << run2.histories.diff(run1.histories, app.net);
  EXPECT_TRUE(run2.met_all_deadlines());
}

TEST(Unfolding, SporadicServersScaleWithSuperFrame) {
  const auto app = apps::build_fig1();
  DerivationOptions opts;
  opts.unfolding = 4;
  const auto derived = derive_task_graph(app.net, app.fig3_wcets(), opts);
  // CoefB: burst 2, server period 200, super-frame 800 -> 8 server jobs in
  // 4 subsets.
  const auto jobs = derived.graph.jobs_of(app.coef_b);
  EXPECT_EQ(jobs.size(), 8u);
  EXPECT_EQ(derived.graph.job(jobs.back()).subset, 4);
}

}  // namespace
}  // namespace fppn
