// E6 (§III-B ablation): every strategy in the scheduling registry —
// the four SP heuristics plus the local-search optimizer — compared on
// the paper's graphs and on random layered task graphs (feasibility rate
// and makespan), with the parallel multi-strategy search as the engine's
// default path.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "bench_graphs.hpp"
#include "bench_json.hpp"
#include "engine/engine.hpp"
#include "sched/parallel_search.hpp"
#include "sched/registry.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/derivation.hpp"

namespace {

using namespace fppn;

using benchgraphs::random_task_graph;

sched::StrategyOptions quick_options(std::int64_t processors, std::uint64_t seed) {
  sched::StrategyOptions opts;
  opts.processors = processors;
  opts.seed = seed;
  opts.max_iterations = 400;
  opts.restarts = 1;
  return opts;
}

void print_report() {
  auto& registry = sched::StrategyRegistry::global();
  std::printf("=== SP-strategy ablation (registry: %zu strategies, M processors) ===\n\n",
              registry.names().size());

  // Paper graphs.
  struct NamedGraph {
    std::string name;
    TaskGraph tg;
    std::int64_t processors;
  };
  std::vector<NamedGraph> graphs;
  {
    const auto fig1 = apps::build_fig1();
    graphs.push_back(
        {"fig1 (M=2)", derive_task_graph(fig1.net, fig1.fig3_wcets()).graph, 2});
    const auto fft = apps::build_fft(8);
    graphs.push_back(
        {"fft8 (M=2)",
         derive_task_graph(fft.net, fft.uniform_wcets(Duration::ratio_ms(40, 3)))
             .graph,
         2});
    const auto fms = apps::build_fms();
    graphs.push_back(
        {"fms (M=1)", derive_task_graph(fms.net, fms.default_wcets()).graph, 1});
  }
  std::printf("%-12s", "graph");
  for (const std::string& name : registry.names()) {
    std::printf(" %-22s", name.c_str());
  }
  std::printf("\n");
  for (auto& g : graphs) {
    std::printf("%-12s", g.name.c_str());
    for (const std::string& name : registry.names()) {
      const auto result =
          registry.create(name)->schedule(g.tg, quick_options(g.processors, 1));
      std::printf(" %-22s", (std::string(result.feasible ? "feasible " : "INFEASIBLE ") +
                             result.makespan.to_string() + "ms")
                                .c_str());
    }
    std::printf("\n");
  }

  // Random graphs: feasibility rate over 100 seeds on tight frames, with
  // the parallel multi-strategy search as the last contender.
  benchjson::Report json("heuristics");
  std::printf("\nrandom layered graphs (6x6 jobs, frame 180 ms, M=4), 100 seeds:\n");
  std::printf("%-22s %-16s %-14s\n", "strategy", "feasible-rate", "avg-makespan");
  for (const std::string& name : registry.names()) {
    int feasible = 0;
    double makespan_sum = 0.0;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
      const TaskGraph tg = random_task_graph(6, 6, 180, seed);
      const auto result = registry.create(name)->schedule(tg, quick_options(4, seed + 1));
      feasible += result.feasible ? 1 : 0;
      makespan_sum += result.makespan.to_double_ms();
    }
    std::printf("%-22s %-16s %-14.1f\n", name.c_str(),
                (std::to_string(feasible) + "/100").c_str(), makespan_sum / 100.0);
    json.metric(name + "_feasible_rate", feasible / 100.0);
    json.metric(name + "_avg_makespan_ms", makespan_sum / 100.0);
  }
  {
    int feasible = 0;
    double makespan_sum = 0.0;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
      const TaskGraph tg = random_task_graph(6, 6, 180, seed);
      engine::SearchConfig config;
      config.processors = 4;
      config.seeds_per_strategy = 2;
      config.seed = seed + 1;
      config.max_iterations = 400;
      config.restarts = 1;
      const auto report = engine::solve_graph(tg, config);
      feasible += report.feasible() ? 1 : 0;
      makespan_sum += report.search.best.makespan.to_double_ms();
    }
    std::printf("%-22s %-16s %-14.1f\n", "parallel-search",
                (std::to_string(feasible) + "/100").c_str(), makespan_sum / 100.0);
    json.metric("parallel-search_feasible_rate", feasible / 100.0);
    json.metric("parallel-search_avg_makespan_ms", makespan_sum / 100.0);
  }
  json.write();
  std::printf("\n");
}

void BM_StrategyOnFms(benchmark::State& state) {
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const auto names = sched::StrategyRegistry::global().names();
  const auto index = static_cast<std::size_t>(state.range(0));
  if (index >= names.size()) {
    state.SkipWithError("strategy index out of range — update the Arg list");
    return;
  }
  const std::string name = names[index];
  const auto strategy = sched::StrategyRegistry::global().create(name);
  const sched::StrategyOptions opts = quick_options(1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->schedule(derived.graph, opts).makespan);
  }
  state.SetLabel(name);
}
BENCHMARK(BM_StrategyOnFms)->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

void BM_RandomGraphSchedule(benchmark::State& state) {
  const TaskGraph tg = random_task_graph(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(1)), 500, 7);
  const auto strategy = sched::StrategyRegistry::global().create("b-level");
  const sched::StrategyOptions opts = quick_options(4, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->schedule(tg, opts).makespan);
  }
}
BENCHMARK(BM_RandomGraphSchedule)->Args({6, 6})->Args({10, 10})->Args({20, 10});

void BM_ParallelSearchWorkers(benchmark::State& state) {
  const TaskGraph tg = random_task_graph(10, 10, 500, 7);
  engine::SearchConfig config;
  config.processors = 4;
  config.workers = static_cast<int>(state.range(0));
  config.seeds_per_strategy = 4;
  config.max_iterations = 400;
  config.restarts = 2;  // the pre-engine ParallelSearchOptions default
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::solve_graph(tg, config).search.best.makespan);
  }
  state.SetLabel(std::to_string(state.range(0)) + " worker(s)");
}
BENCHMARK(BM_ParallelSearchWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
