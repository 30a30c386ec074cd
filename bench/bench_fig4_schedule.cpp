// E2 (Fig. 4): a feasible 2-processor static schedule for the Fig. 3 task
// graph, printed as a Gantt chart, plus scheduling-engine micro-benchmarks.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/fig1.hpp"
#include "engine/engine.hpp"
#include "sched/registry.hpp"
#include "taskgraph/derivation.hpp"

namespace {

using namespace fppn;

void print_report() {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());

  std::printf("=== Fig. 4: static schedule for the Fig. 3 task graph ===\n");
  for (const std::int64_t m : {1, 2, 3}) {
    engine::SearchConfig config;
    config.processors = m;
    const auto result = engine::solve_graph(derived.graph, config).search;
    std::printf("\nM = %lld: %s (strategy %s, makespan %s ms)\n",
                static_cast<long long>(m),
                result.best.feasible ? "FEASIBLE" : "infeasible",
                result.best.strategy.c_str(),
                result.best.makespan.to_string().c_str());
    if (m == 2) {
      std::printf("%s", result.best.schedule.to_gantt(derived.graph, 100).c_str());
      const auto busy = result.best.schedule.busy_time(derived.graph);
      for (std::size_t i = 0; i < busy.size(); ++i) {
        std::printf("M%zu busy %s / 200 ms\n", i + 1, busy[i].to_string().c_str());
      }
    }
  }
  std::printf("\npaper: one processor misses deadlines (load 5/3 > 1); two fit "
              "the 200 ms frame.\n\n");
}

void BM_ListScheduleFig3(benchmark::State& state) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const auto strategy = sched::StrategyRegistry::global().create("alap-edf");
  sched::StrategyOptions opts;
  opts.processors = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->schedule(derived.graph, opts).makespan);
  }
}
BENCHMARK(BM_ListScheduleFig3)->Arg(1)->Arg(2)->Arg(4);

void BM_FeasibilityCheck(benchmark::State& state) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::StrategyOptions opts;
  opts.processors = 2;
  const auto s =
      sched::StrategyRegistry::global().create("alap-edf")->schedule(derived.graph, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.schedule.check_feasibility(derived.graph).feasible());
  }
}
BENCHMARK(BM_FeasibilityCheck);

void BM_ParallelSearchFig3(benchmark::State& state) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  engine::SearchConfig config;
  config.processors = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::solve_graph(derived.graph, config).search.best.makespan);
  }
}
BENCHMARK(BM_ParallelSearchFig3)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
