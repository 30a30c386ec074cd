// The FMS avionics case study (Fig. 7, §V-B): the published numbers —
// hyperperiod 40 s reduced to 10 s, a task graph of 812 jobs, load ~0.23,
// single-processor feasibility — plus the behavior of the BCP pipeline.
#include "apps/fms.hpp"

#include <gtest/gtest.h>

#include "fppn/semantics.hpp"
#include "sched/registry.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace {

using apps::build_fms;

/// The alap-edf strategy's schedule of `tg` on `processors` processors.
sched::StrategyResult alap_edf(const TaskGraph& tg, std::int64_t processors) {
  sched::StrategyOptions opts;
  opts.processors = processors;
  return sched::StrategyRegistry::global().create("alap-edf")->schedule(tg, opts);
}

TEST(FmsApp, TwelveProcesses) {
  const auto app = build_fms();
  EXPECT_EQ(app.net.process_count(), 12u);
  EXPECT_EQ(app.sporadics().size(), 7u);
}

TEST(FmsApp, HyperperiodReduction40sTo10s) {
  // §V-B: "a too high code generation overhead due to a long hyperperiod
  // (40 s) ... we reduced it to 10 s by reducing the period of MagnDeclin
  // from 1600 ms to 400 ms".
  const auto original = build_fms(/*reduced_period=*/false);
  EXPECT_EQ(original.net.hyperperiod(), Duration::ms(40000));
  const auto reduced = build_fms(/*reduced_period=*/true);
  EXPECT_EQ(reduced.net.hyperperiod(), Duration::ms(10000));
}

TEST(FmsApp, SporadicsServedByTheirUsers) {
  const auto app = build_fms();
  EXPECT_EQ(app.net.user_of(app.anemo_config), app.high_freq_bcp);
  EXPECT_EQ(app.net.user_of(app.gps_config), app.high_freq_bcp);
  EXPECT_EQ(app.net.user_of(app.irs_config), app.high_freq_bcp);
  EXPECT_EQ(app.net.user_of(app.doppler_config), app.high_freq_bcp);
  EXPECT_EQ(app.net.user_of(app.bcp_config), app.high_freq_bcp);
  EXPECT_EQ(app.net.user_of(app.magn_declin_config), app.magn_declin);
  EXPECT_EQ(app.net.user_of(app.performance_config), app.performance);
  EXPECT_TRUE(app.net.in_schedulable_subclass());
}

TEST(FmsApp, SporadicsHaveLowerPriorityThanUsers) {
  // §V-B: "The sporadic processes had less functional priority than their
  // periodic users."
  const auto app = build_fms();
  for (const ProcessId p : app.sporadics()) {
    const ProcessId user = *app.net.user_of(p);
    EXPECT_TRUE(app.net.has_priority(user, p))
        << app.net.process(p).name << " should be below its user";
  }
}

TEST(FmsApp, TaskGraphHas812Jobs) {
  // The headline §V-B number: 812 jobs in the derived task graph.
  const auto app = build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  EXPECT_EQ(derived.graph.job_count(), 812u);
  EXPECT_EQ(derived.hyperperiod, Duration::ms(10000));
}

TEST(FmsApp, PerProcessJobCounts) {
  const auto app = build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const auto count = [&](ProcessId p) {
    return derived.graph.jobs_of(p).size();
  };
  EXPECT_EQ(count(app.sensor_input), 50u);
  EXPECT_EQ(count(app.high_freq_bcp), 50u);
  EXPECT_EQ(count(app.low_freq_bcp), 2u);
  EXPECT_EQ(count(app.magn_declin), 25u);
  EXPECT_EQ(count(app.performance), 10u);
  EXPECT_EQ(count(app.anemo_config), 100u);
  EXPECT_EQ(count(app.gps_config), 100u);
  EXPECT_EQ(count(app.irs_config), 100u);
  EXPECT_EQ(count(app.doppler_config), 100u);
  EXPECT_EQ(count(app.bcp_config), 100u);
  EXPECT_EQ(count(app.magn_declin_config), 125u);
  EXPECT_EQ(count(app.performance_config), 50u);
}

TEST(FmsApp, EdgeCountNearPaper) {
  // The paper reports 1977 edges; the exact count depends on the (not
  // fully published) FP graph and on whether the count was taken before
  // or after transitive reduction. Our reconstruction: 1124 edges after
  // the (unique) transitive reduction, 2074 in the generating set before
  // it — the paper's figure sits between the two. Pin both so regressions
  // are caught, and keep a sanity band around the paper's regime.
  const auto app = build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  EXPECT_EQ(derived.graph.edge_count(), 1124u);
  EXPECT_EQ(derived.graph.edge_count() + derived.edges_removed, 2074u);
  EXPECT_GT(derived.graph.edge_count(), 900u);
  EXPECT_LT(derived.graph.edge_count() + derived.edges_removed, 2400u);
}

TEST(FmsApp, LoadNearPaperAndSingleProcessorFeasible) {
  // §V-B: load ~0.23; "consistently, a single-processor mapping
  // encountered no deadline misses".
  const auto app = build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const LoadResult load = task_graph_load(derived.graph);
  EXPECT_NEAR(load.load_value(), 0.23, 0.05);  // paper: ~0.23; ours: 0.2225
  EXPECT_EQ(load.min_processors(), 1);
  const auto attempt = alap_edf(derived.graph, 1);
  EXPECT_TRUE(attempt.feasible);
}

TEST(FmsApp, MultiProcessorSchedulesAlsoFeasible) {
  const auto app = build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  for (const std::int64_t m : {2, 4}) {
    const auto attempt = alap_edf(derived.graph, m);
    EXPECT_TRUE(attempt.feasible) << m << " processors";
  }
}

TEST(FmsApp, BcpPipelineReactsToSensors) {
  const auto app = build_fms();
  const InputScripts inputs = app.make_inputs(10);
  const auto res = run_zero_delay(
      app.net, InvocationPlan::build(app.net, Time::ms(2000)), inputs);
  const auto& bcp = res.histories.output_samples.at(app.bcp_out);
  EXPECT_EQ(bcp.size(), 10u);  // HighFreqBCP every 200 ms
  // The fused position must move once sensor data arrives.
  EXPECT_NE(bcp.front().value, bcp.back().value);
  const auto& fuel = res.histories.output_samples.at(app.fuel_out);
  EXPECT_EQ(fuel.size(), 2u);  // Performance at 0 and 1000
  // Fuel estimate accumulates monotonically.
  EXPECT_GT(std::get<double>(fuel[1].value), std::get<double>(fuel[0].value));
}

TEST(FmsApp, MagnDeclinStrideExecutesBodyOncePerFour) {
  // §V-B period-reduction trick: at 400 ms the main body runs once per 4
  // invocations, so Declination is written 7 times in 10 s (k = 1, 5, 9,
  // 13, 17, 21, 25), the original 1600 ms rate.
  const auto app = build_fms();
  const InputScripts inputs = app.make_inputs(50);
  const auto res = run_zero_delay(
      app.net, InvocationPlan::build(app.net, Time::ms(10000)), inputs);
  const ChannelId declination = *app.net.find_channel("Declination");
  const auto it = res.histories.channel_writes.find(declination);
  ASSERT_NE(it, res.histories.channel_writes.end());
  EXPECT_EQ(it->second.size(), 7u);
  // The unreduced variant writes at every invocation: 1600 ms -> 7 in 10 s
  // too, but with 25 invocations the reduced variant would have written 25
  // without the stride. Check the stride actually suppressed 18 writes.
  const auto raw = build_fms(false);
  const auto res_raw = run_zero_delay(
      raw.net, InvocationPlan::build(raw.net, Time::ms(10000)), raw.make_inputs(50));
  const ChannelId decl_raw = *raw.net.find_channel("Declination");
  EXPECT_EQ(res_raw.histories.channel_writes.at(decl_raw).size(), 7u);
}

TEST(FmsApp, ConfigCommandsReachTheFusion) {
  const auto app = build_fms();
  // Zero GPS weight vs full GPS weight must change the BCP whenever the
  // GPS reading differs from the other sensors.
  InputScripts inputs = app.make_inputs(5, /*seed=*/3);
  std::map<ProcessId, SporadicScript> cmd;
  cmd.emplace(app.gps_config,
              SporadicScript({Time::ms(10)}, 2, Duration::ms(200)));
  // Override the GPS command stream with weight 0.
  const ChannelId gps_cmd = *app.net.find_channel("GPSCmd");
  inputs[gps_cmd] = std::vector<Value>{Value{0.0}};
  const auto res_zero = run_zero_delay(
      app.net, InvocationPlan::build(app.net, Time::ms(1000), cmd), inputs);
  inputs[gps_cmd] = std::vector<Value>{Value{1.0}};
  const auto res_one = run_zero_delay(
      app.net, InvocationPlan::build(app.net, Time::ms(1000), cmd), inputs);
  EXPECT_NE(res_zero.histories.output_samples.at(app.bcp_out),
            res_one.histories.output_samples.at(app.bcp_out));
}

}  // namespace
}  // namespace fppn
