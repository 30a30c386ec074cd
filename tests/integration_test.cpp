// End-to-end integration: network -> task graph -> schedule -> online
// policy -> functional equivalence with the zero-delay semantics, swept
// over applications, processor counts and execution-time jitter
// (parameterized property suite).
#include <gtest/gtest.h>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "runtime/vm_runtime.hpp"
#include "sched/registry.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace {

/// The alap-edf strategy's schedule of `tg` on `processors` processors.
sched::StrategyResult alap_edf(const TaskGraph& tg, std::int64_t processors) {
  sched::StrategyOptions opts;
  opts.processors = processors;
  return sched::StrategyRegistry::global().create("alap-edf")->schedule(tg, opts);
}

struct SweepParam {
  std::int64_t processors;
  std::uint64_t seed;
};

class Fig1EndToEnd : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Fig1EndToEnd, PipelineDeterministicUnderJitter) {
  const auto [processors, seed] = GetParam();
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const auto attempt = alap_edf(derived.graph, processors);
  ASSERT_TRUE(attempt.feasible);

  const std::int64_t frames = 3;
  std::map<ProcessId, SporadicScript> scripts;
  scripts.emplace(app.coef_b,
                  SporadicScript::random(2, Duration::ms(700),
                                         Time::ms(200 * (frames - 1)), seed));
  const InputScripts inputs =
      app.make_inputs({3, 1, 4, 1, 5, 9, 2, 6}, {1.5, 2.5, 3.5, 4.5, 5.5, 6.5});

  // Jittered actual execution times, always within the WCET.
  RunOptions opts;
  opts.frames = frames;
  opts.actual_time = [seed](JobId id, std::int64_t frame) {
    const std::uint64_t mix =
        seed * 1000003ULL + id.value() * 97ULL + static_cast<std::uint64_t>(frame);
    return Duration::ms(5 + static_cast<std::int64_t>(mix % 21));
  };
  const RunResult run =
      run_static_order_vm(app.net, derived, attempt.schedule, opts, inputs, scripts);
  EXPECT_TRUE(run.met_all_deadlines());

  const ZeroDelayResult ref =
      zero_delay_reference(app.net, derived.hyperperiod, frames, inputs, scripts);
  EXPECT_TRUE(run.histories.functionally_equal(ref.histories))
      << run.histories.diff(ref.histories, app.net);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fig1EndToEnd,
    ::testing::Values(SweepParam{2, 1}, SweepParam{2, 7}, SweepParam{2, 42},
                      SweepParam{3, 1}, SweepParam{3, 99}, SweepParam{4, 5},
                      SweepParam{4, 1234}));

class FftEndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(FftEndToEnd, SpectraIdenticalOnAnyProcessorCount) {
  const int processors = GetParam();
  const auto app = apps::build_fft(8);
  const auto derived =
      derive_task_graph(app.net, app.uniform_wcets(Duration::ratio_ms(40, 3)));
  const auto attempt = alap_edf(derived.graph, processors);
  ASSERT_TRUE(attempt.feasible);
  const std::vector<std::vector<double>> frames = {
      {1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1}};
  const InputScripts inputs = app.make_inputs(frames);
  RunOptions opts;
  opts.frames = 2;
  const RunResult run =
      run_static_order_vm(app.net, derived, attempt.schedule, opts, inputs, {});
  EXPECT_TRUE(run.met_all_deadlines());
  const ZeroDelayResult ref =
      zero_delay_reference(app.net, derived.hyperperiod, 2, inputs, {});
  EXPECT_TRUE(run.histories.functionally_equal(ref.histories));
}

INSTANTIATE_TEST_SUITE_P(Processors, FftEndToEnd, ::testing::Values(2, 3, 4, 6));

TEST(FmsEndToEnd, FullHyperperiodOnOneProcessor) {
  // The paper's single-processor deployment: one 10 s frame, sporadic
  // pilot commands, no deadline misses, deterministic against the
  // zero-delay reference.
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const auto attempt = alap_edf(derived.graph, 1);
  ASSERT_TRUE(attempt.feasible);

  // Keep commands within the span covered by the single frame's server
  // subsets (left-closed windows end T_u before the frame does).
  const auto scripts = app.random_commands(Time::ms(9000), /*seed=*/11);
  const InputScripts inputs = app.make_inputs(55, /*seed=*/11);
  RunOptions opts;
  opts.frames = 1;
  const RunResult run =
      run_static_order_vm(app.net, derived, attempt.schedule, opts, inputs, scripts);
  EXPECT_TRUE(run.met_all_deadlines())
      << run.misses.size() << " misses, first: "
      << (run.misses.empty() ? ""
                             : derived.graph.job(run.misses.front().job).name);
  const ZeroDelayResult ref =
      zero_delay_reference(app.net, derived.hyperperiod, 1, inputs, scripts);
  EXPECT_TRUE(run.histories.functionally_equal(ref.histories))
      << run.histories.diff(ref.histories, app.net);
}

TEST(FmsEndToEnd, TwoProcessorRunAgreesWithOneProcessorRun) {
  // Prop. 2.1 + Prop. 4.1 jointly: the mapping must not change outputs.
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const auto scripts = app.random_commands(Time::ms(9000), /*seed=*/23);
  const InputScripts inputs = app.make_inputs(55, /*seed=*/23);
  RunOptions opts;
  opts.frames = 1;

  const auto one = alap_edf(derived.graph, 1);
  const auto two = alap_edf(derived.graph, 2);
  ASSERT_TRUE(one.feasible);
  ASSERT_TRUE(two.feasible);
  const RunResult r1 =
      run_static_order_vm(app.net, derived, one.schedule, opts, inputs, scripts);
  const RunResult r2 =
      run_static_order_vm(app.net, derived, two.schedule, opts, inputs, scripts);
  EXPECT_TRUE(r1.histories.functionally_equal(r2.histories))
      << r1.histories.diff(r2.histories, app.net);
}

TEST(FmsEndToEnd, OriginalUniprocessorPrototypeEquivalence) {
  // §V-B: the FMS priorities were chosen rate-monotonic "in line with the
  // scheduling priority of the original uniprocessor prototype, making
  // the two implementations functionally equivalent, which we verified by
  // testing". Our analogue: the zero-delay semantics (the formal
  // uniprocessor fixed-priority execution) vs the multiprocessor VM.
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const auto attempt = alap_edf(derived.graph, 3);
  ASSERT_TRUE(attempt.feasible);
  const InputScripts inputs = app.make_inputs(55, /*seed=*/5);
  RunOptions opts;
  opts.frames = 1;
  const RunResult run =
      run_static_order_vm(app.net, derived, attempt.schedule, opts, inputs, {});
  const ZeroDelayResult ref =
      zero_delay_reference(app.net, derived.hyperperiod, 1, inputs, {});
  EXPECT_TRUE(run.histories.functionally_equal(ref.histories));
}

}  // namespace
}  // namespace fppn
