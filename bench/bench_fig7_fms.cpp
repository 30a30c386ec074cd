// E4 (Fig. 7, §V-B): the FMS avionics subsystem — hyperperiod reduction
// 40 s -> 10 s, the 812-job task graph (paper: 812 jobs, 1977 edges),
// load ~0.23, and deadline behavior on 1..4 processors.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/fms.hpp"
#include "engine/engine.hpp"
#include "runtime/runtime.hpp"
#include "sched/registry.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/derivation.hpp"

namespace {

using namespace fppn;

void print_report() {
  const auto original = apps::build_fms(/*reduced_period=*/false);
  const auto app = apps::build_fms(/*reduced_period=*/true);

  std::printf("=== Fig. 7: Flight Management System subsystem ===\n");
  std::printf("hyperperiod: original %s ms, reduced %s ms (paper: 40 s -> 10 s via "
              "MagnDeclin 1600 -> 400 ms, body once per 4 invocations)\n",
              original.net.hyperperiod().to_string().c_str(),
              app.net.hyperperiod().to_string().c_str());

  const auto derived = derive_task_graph(app.net, app.default_wcets());
  std::printf("task graph: %zu jobs (paper: 812), %zu edges after reduction "
              "(paper: 1977), %zu removed by reduction\n",
              derived.graph.job_count(), derived.graph.edge_count(),
              derived.edges_removed);
  const LoadResult load = task_graph_load(derived.graph);
  std::printf("load: %.4f (paper: ~0.23) -> lower bound %lld processor(s)\n\n",
              load.load_value(), static_cast<long long>(load.min_processors()));

  std::printf("%-6s %-10s %-10s %-12s %s\n", "procs", "feasible?", "makespan",
              "misses/1fr", "summary");
  const auto scripts = app.random_commands(Time::ms(9000), /*seed=*/17);
  const InputScripts inputs = app.make_inputs(55, /*seed=*/17);
  engine::SearchConfig config;
  config.max_iterations = 200;
  config.restarts = 0;
  for (const std::int64_t m : {1, 2, 3, 4}) {
    config.processors = m;
    const sched::StrategyResult attempt = engine::solve_graph(derived.graph, config).search.best;
    runtime::RunOptions opts;
    opts.frames = 1;
    const RunResult run = runtime::make_runtime("vm")->run(
        app.net, derived, attempt.schedule, opts, inputs, scripts);
    std::printf("%-6lld %-10s %-10s %-12zu %s\n", static_cast<long long>(m),
                attempt.feasible ? "yes" : "no",
                attempt.makespan.to_string().c_str(), run.misses.size(),
                run.trace.summary().c_str());
  }
  std::printf("\npaper: load 0.23; single-processor mapping encountered no "
              "deadline misses.\n\n");
}

void BM_FmsDerivation(benchmark::State& state) {
  const auto app = apps::build_fms();
  const WcetMap wcets = app.default_wcets();
  for (auto _ : state) {
    auto derived = derive_task_graph(app.net, wcets);
    benchmark::DoNotOptimize(derived.graph.edge_count());
  }
}
BENCHMARK(BM_FmsDerivation)->Unit(benchmark::kMillisecond);

void BM_FmsListSchedule(benchmark::State& state) {
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const auto strategy = sched::StrategyRegistry::global().create("alap-edf");
  for (auto _ : state) {
    sched::StrategyOptions opts;
    opts.processors = state.range(0);
    benchmark::DoNotOptimize(strategy->schedule(derived.graph, opts).makespan);
  }
}
BENCHMARK(BM_FmsListSchedule)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FmsVmOneFrame(benchmark::State& state) {
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  engine::SearchConfig config;
  config.processors = state.range(0);
  config.max_iterations = 200;
  config.restarts = 0;
  const auto attempt = engine::solve_graph(derived.graph, config).search.best;
  const auto scripts = app.random_commands(Time::ms(9000), 17);
  const InputScripts inputs = app.make_inputs(55, 17);
  const auto vm = runtime::make_runtime("vm");
  runtime::RunOptions opts;
  opts.frames = 1;
  for (auto _ : state) {
    auto run = vm->run(app.net, derived, attempt.schedule, opts, inputs, scripts);
    benchmark::DoNotOptimize(run.jobs_executed);
  }
}
BENCHMARK(BM_FmsVmOneFrame)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

/// The deployed application's op: the paper FMS's optimize-preset winner
/// on 2 processors run on the vm for 10 hyperperiods with seeded sensor
/// inputs and sporadic commands, then the zero-delay reference for the
/// same inputs and the history compare (Prop. 4.1). Commands end one
/// hyperperiod before the horizon, which the vm serves a frame late.
void BM_FmsExecute(benchmark::State& state) {
  constexpr std::int64_t kFrames = 10;
  const auto app = apps::build_fms(/*reduced_period=*/true);
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  engine::SearchConfig config;
  config.processors = 2;
  config.workers = 2;
  config.optimize = true;
  config.no_cache = true;
  const StaticSchedule schedule = engine::solve_graph(derived.graph, config).search.best.schedule;
  const Duration h = derived.hyperperiod;
  const auto blocks = static_cast<std::size_t>(
      kFrames * static_cast<std::int64_t>(h.to_double_ms() / 200.0 + 0.5));
  const InputScripts inputs = app.make_inputs(blocks, /*seed=*/11);
  const auto commands = app.random_commands(Time() + h * Rational(kFrames - 1), 11);
  RunOptions opts;
  opts.frames = kFrames;
  for (auto _ : state) {
    const RunResult run =
        run_static_order_vm(app.net, derived, schedule, opts, inputs, commands);
    const ZeroDelayResult reference =
        zero_delay_reference(app.net, h, kFrames, inputs, commands);
    const bool equal = run.histories.functionally_equal(reference.histories);
    if (!equal || !run.met_all_deadlines()) {
      state.SkipWithError("vm histories differ from the zero-delay reference");
      break;
    }
    benchmark::DoNotOptimize(run.jobs_executed);
  }
}
BENCHMARK(BM_FmsExecute)->Unit(benchmark::kMillisecond);

void BM_FmsLoadMetric(benchmark::State& state) {
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  for (auto _ : state) {
    benchmark::DoNotOptimize(task_graph_load(derived.graph).load_value());
  }
}
BENCHMARK(BM_FmsLoadMetric)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
