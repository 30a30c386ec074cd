// E7 (Prop. 2.1 / Prop. 4.1): determinism as an experiment — identical
// output histories across schedules, processor counts, execution-time
// jitter and tie-break orders; plus the cost of the semantics engines.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "engine/engine.hpp"
#include "runtime/runtime.hpp"
#include "taskgraph/derivation.hpp"

namespace {

using namespace fppn;

void print_report() {
  std::printf("=== Determinism: outputs as a function of inputs + time stamps ===\n\n");
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const InputScripts inputs =
      app.make_inputs({3, 1, 4, 1, 5, 9, 2, 6}, {1.5, 2.5, 3.5, 4.5});
  std::map<ProcessId, SporadicScript> scripts;
  scripts.emplace(app.coef_b, SporadicScript({Time::ms(50), Time::ms(390)}, 2,
                                             Duration::ms(700)));
  const std::int64_t frames = 3;
  const ZeroDelayResult ref =
      zero_delay_reference(app.net, derived.hyperperiod, frames, inputs, scripts);
  std::printf("reference (zero-delay) fingerprint: %016zx\n",
              ref.histories.fingerprint());

  std::printf("%-28s %-18s %-8s\n", "execution", "fingerprint", "equal?");
  for (const std::int64_t m : {2, 3, 4}) {
    for (const int jitter : {0, 1, 2}) {
      engine::SearchConfig config;
      config.processors = m;
      config.seeds_per_strategy = 1;
      config.max_iterations = 2000;  // the pre-engine defaults
      config.restarts = 2;
      const auto attempt = engine::solve_graph(derived.graph, config).search.best;
      runtime::RunOptions opts;
      opts.frames = frames;
      if (jitter > 0) {
        opts.actual_time = [jitter](JobId id, std::int64_t frame) {
          return Duration::ms(3 + ((id.value() * 13 +
                                    static_cast<std::size_t>(frame * jitter)) %
                                   23));
        };
      }
      const RunResult run = runtime::make_runtime("vm")->run(
          app.net, derived, attempt.schedule, opts, inputs, scripts);
      const bool equal = run.histories.functionally_equal(ref.histories);
      char label[64];
      std::snprintf(label, sizeof label, "VM M=%lld jitter=%d",
                    static_cast<long long>(m), jitter);
      std::printf("%-28s %016zx   %s\n", label, run.histories.fingerprint(),
                  equal ? "yes" : "NO!");
    }
  }
  std::printf("\nAll rows must read 'yes': Prop. 2.1 + Prop. 4.1.\n\n");
}

void BM_ZeroDelayFig1(benchmark::State& state) {
  const auto app = apps::build_fig1();
  const InputScripts inputs = app.make_inputs({1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3});
  const InvocationPlan plan = InvocationPlan::build(app.net, Time::ms(1400));
  for (auto _ : state) {
    auto res = run_zero_delay(app.net, plan, inputs);
    benchmark::DoNotOptimize(res.jobs_executed);
  }
}
BENCHMARK(BM_ZeroDelayFig1);

void BM_ZeroDelayFmsHyperperiod(benchmark::State& state) {
  const auto app = apps::build_fms();
  const InputScripts inputs = app.make_inputs(55);
  const InvocationPlan plan = InvocationPlan::build(app.net, Time::ms(10000));
  for (auto _ : state) {
    auto res = run_zero_delay(app.net, plan, inputs);
    benchmark::DoNotOptimize(res.jobs_executed);
  }
}
BENCHMARK(BM_ZeroDelayFmsHyperperiod)->Unit(benchmark::kMillisecond);

// The execute-fms shape: the untraced reference over 10 FMS hyperperiods
// with sensor inputs and random sporadic commands (plan build included).
void BM_ZeroDelayReferenceFms(benchmark::State& state) {
  const auto app = apps::build_fms();
  const Duration hyperperiod = derive_task_graph(app.net, app.default_wcets()).hyperperiod;
  constexpr std::int64_t kFrames = 10;
  const InputScripts inputs = app.make_inputs(static_cast<std::size_t>(kFrames * 50), 1);
  const auto commands =
      app.random_commands(Time() + hyperperiod * Rational(kFrames - 1), 1);
  for (auto _ : state) {
    auto res = zero_delay_reference(app.net, hyperperiod, kFrames, inputs, commands);
    benchmark::DoNotOptimize(res.jobs_executed);
  }
}
BENCHMARK(BM_ZeroDelayReferenceFms)->Unit(benchmark::kMillisecond);

void BM_HistoryFingerprint(benchmark::State& state) {
  const auto app = apps::build_fms();
  const InputScripts inputs = app.make_inputs(55);
  const auto res = run_zero_delay(
      app.net, InvocationPlan::build(app.net, Time::ms(10000)), inputs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(res.histories.fingerprint());
  }
}
BENCHMARK(BM_HistoryFingerprint);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
