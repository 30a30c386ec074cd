// The std::thread deployment of the static-order policy (§V, Linux
// runtime). Wall-clock jitter makes timing approximate, so these tests
// assert *functional* correctness exactly and timing loosely.
#include "runtime/thread_runtime.hpp"

#include <gtest/gtest.h>

#include "apps/fig1.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace {

struct Rig {
  apps::Fig1App app;
  DerivedTaskGraph derived;
  StaticSchedule schedule;
  InputScripts inputs;

  static Rig make(std::int64_t processors) {
    Rig s;
    s.app = apps::build_fig1();
    s.derived = derive_task_graph(s.app.net, s.app.fig3_wcets());
    s.schedule =
        testing::list_schedule(s.derived.graph, PriorityHeuristic::kAlapEdf, processors);
    s.inputs = s.app.make_inputs({1, 2, 3, 4, 5, 6, 7, 8},
                                 {2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
    return s;
  }
};

RunOptions fast_options(std::int64_t frames) {
  RunOptions opts;
  opts.frames = frames;
  opts.micros_per_model_ms = 100.0;  // 200 ms frame -> 20 ms wall
  // Sleep far less than the WCET so OS jitter cannot cause misses.
  opts.actual_time = [](JobId, std::int64_t) { return Duration::ms(2); };
  return opts;
}

TEST(ThreadRuntime, FunctionallyEqualToZeroDelayReference) {
  const Rig s = Rig::make(2);
  const RunResult r = run_static_order_threads(s.app.net, s.derived, s.schedule,
                                               fast_options(3), s.inputs, {});
  const ZeroDelayResult ref =
      zero_delay_reference(s.app.net, s.derived.hyperperiod, 3, s.inputs, {});
  EXPECT_TRUE(r.histories.functionally_equal(ref.histories))
      << r.histories.diff(ref.histories, s.app.net);
  EXPECT_EQ(r.jobs_executed, 3u * 8u);
  EXPECT_EQ(r.false_skips, 3u * 2u);
}

TEST(ThreadRuntime, SporadicInjectionMatchesReference) {
  const Rig s = Rig::make(2);
  std::map<ProcessId, SporadicScript> scripts;
  scripts.emplace(s.app.coef_b, SporadicScript({Time::ms(50), Time::ms(390)}, 2,
                                               Duration::ms(700)));
  const RunResult r = run_static_order_threads(s.app.net, s.derived, s.schedule,
                                               fast_options(4), s.inputs, scripts);
  const ZeroDelayResult ref =
      zero_delay_reference(s.app.net, s.derived.hyperperiod, 4, s.inputs, scripts);
  EXPECT_TRUE(r.histories.functionally_equal(ref.histories))
      << r.histories.diff(ref.histories, s.app.net);
  EXPECT_EQ(r.jobs_executed, 4u * 8u + 2u);
  EXPECT_EQ(r.false_skips, 4u * 2u - 2u);
}

TEST(ThreadRuntime, DeterministicAcrossRepetitions) {
  const Rig s = Rig::make(2);
  std::map<ProcessId, SporadicScript> scripts;
  scripts.emplace(s.app.coef_b,
                  SporadicScript({Time::ms(20), Time::ms(150)}, 2, Duration::ms(700)));
  std::optional<std::size_t> fingerprint;
  for (int run = 0; run < 3; ++run) {
    const RunResult r = run_static_order_threads(s.app.net, s.derived, s.schedule,
                                                 fast_options(2), s.inputs, scripts);
    if (!fingerprint.has_value()) {
      fingerprint = r.histories.fingerprint();
    } else {
      EXPECT_EQ(r.histories.fingerprint(), *fingerprint) << "run " << run;
    }
  }
}

TEST(ThreadRuntime, SingleProcessorDeployment) {
  // Multiple process automata mapped to one thread (the paper's static
  // mapping mu_i) still implement the semantics.
  const Rig s = Rig::make(3);  // also exercises an idle processor
  const RunResult r = run_static_order_threads(s.app.net, s.derived, s.schedule,
                                               fast_options(2), s.inputs, {});
  const ZeroDelayResult ref =
      zero_delay_reference(s.app.net, s.derived.hyperperiod, 2, s.inputs, {});
  EXPECT_TRUE(r.histories.functionally_equal(ref.histories));
}

TEST(ThreadRuntime, GenerousDeadlinesAreMet) {
  // With 2 ms model execution inside 200 ms frames and a 10x wall scale,
  // even a loaded CI machine should meet every deadline.
  const Rig s = Rig::make(2);
  RunOptions opts = fast_options(2);
  opts.micros_per_model_ms = 300.0;
  const RunResult r = run_static_order_threads(s.app.net, s.derived, s.schedule, opts,
                                               s.inputs, {});
  EXPECT_TRUE(r.met_all_deadlines())
      << r.misses.size() << " misses (wall-clock jitter?)";
}

TEST(ThreadRuntime, RejectsBadInput) {
  const Rig s = Rig::make(2);
  RunOptions opts;
  opts.frames = 0;
  EXPECT_THROW(
      run_static_order_threads(s.app.net, s.derived, s.schedule, opts, {}, {}),
      std::invalid_argument);
  StaticSchedule partial(s.derived.graph.job_count(), 2);
  EXPECT_THROW(run_static_order_threads(s.app.net, s.derived, partial,
                                        fast_options(1), {}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fppn
