// Warm-start micro-benchmarks: what reusing cached feasible schedules as
// local-search start points buys (and costs). The overlay's promise is
// qualitative — a warm search matches or beats the cold winner — so the
// interesting numbers are (a) the overlay's overhead on a fully warm
// search, (b) optimize_priority seeded with a good start vs. from
// scratch, and (c) the cache-eviction bookkeeping added to each store.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <random>

#include "apps/fig1.hpp"
#include "bench_graphs.hpp"
#include "bench_json.hpp"
#include "engine/engine.hpp"
#include "sched/local_search.hpp"
#include "sched/warm_start.hpp"
#include "taskgraph/derivation.hpp"

namespace {

using namespace fppn;

using benchgraphs::random_task_graph;

engine::SearchConfig search_config(bool overlay) {
  engine::SearchConfig config;
  config.processors = 4;
  config.seeds_per_strategy = 3;
  config.max_iterations = 400;
  config.restarts = 1;
  config.memory_cache = true;  // the Engine's shared in-memory cache
  config.warm_start = overlay;
  return config;
}

void BM_WarmSearchWithoutOverlay(benchmark::State& state) {
  const TaskGraph tg = random_task_graph(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(0)), 500, 7);
  engine::Engine eng;
  engine::SolveRequest request;
  request.graph = &tg;
  request.config = search_config(false);
  (void)eng.solve(request);  // warm it once
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.solve(request).search.best.makespan);
  }
  state.SetLabel(std::to_string(tg.job_count()) + " jobs, warm, overlay off");
}
BENCHMARK(BM_WarmSearchWithoutOverlay)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_WarmSearchWithOverlay(benchmark::State& state) {
  const TaskGraph tg = random_task_graph(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(0)), 500, 7);
  engine::Engine eng;
  engine::SolveRequest request;
  request.graph = &tg;
  request.config = search_config(true);
  (void)eng.solve(request);  // warm it once
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.solve(request).search.best.makespan);
  }
  state.SetLabel(std::to_string(tg.job_count()) + " jobs, warm, overlay on");
}
BENCHMARK(BM_WarmSearchWithOverlay)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_LocalSearchColdStart(benchmark::State& state) {
  const TaskGraph tg = random_task_graph(8, 8, 500, 11);
  sched::StrategyOptions opts;
  opts.processors = 4;
  opts.max_iterations = 1000;
  opts.restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_priority(tg, opts).makespan);
  }
  state.SetLabel(std::to_string(tg.job_count()) + " jobs, heuristic start");
}
BENCHMARK(BM_LocalSearchColdStart)->Unit(benchmark::kMillisecond);

void BM_LocalSearchWarmStart(benchmark::State& state) {
  // Seed the search with its own best-known answer — the steady state of
  // a long-lived cache directory.
  const TaskGraph tg = random_task_graph(8, 8, 500, 11);
  sched::StrategyOptions opts;
  opts.processors = 4;
  opts.max_iterations = 1000;
  opts.restarts = 1;
  const LocalSearchResult cold = optimize_priority(tg, opts);
  opts.warm_starts = {cold.priority};
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_priority(tg, opts).makespan);
  }
  state.SetLabel(std::to_string(tg.job_count()) + " jobs, cached start");
}
BENCHMARK(BM_LocalSearchWarmStart)->Unit(benchmark::kMillisecond);

void BM_PriorityOrderFromSchedule(benchmark::State& state) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const sched::ParallelSearchResult result =
      sched::quick_parallel_search(derived.graph, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::priority_order_from_schedule(derived.graph, result.best.schedule));
  }
  state.SetLabel(std::to_string(derived.graph.job_count()) + " jobs");
}
BENCHMARK(BM_PriorityOrderFromSchedule);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "warm-start benchmarks: the overlay must stay cheap next to the\n"
      "candidate fan-out, and a seeded local search converges from the\n"
      "best known schedule instead of rediscovering it.\n\n");
  {
    // Machine-readable headline: cold vs. warm-seeded local search time.
    using Clock = std::chrono::steady_clock;
    const TaskGraph tg = random_task_graph(8, 8, 500, 11);
    sched::StrategyOptions opts;
    opts.processors = 4;
    opts.max_iterations = 1000;
    opts.restarts = 1;
    const auto cold_begin = Clock::now();
    const LocalSearchResult cold = optimize_priority(tg, opts);
    const double cold_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - cold_begin).count();
    opts.warm_starts = {cold.priority};
    const auto warm_begin = Clock::now();
    const LocalSearchResult warm = optimize_priority(tg, opts);
    const double warm_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - warm_begin).count();
    benchjson::Report json("warm_start");
    json.metric("jobs", static_cast<long long>(tg.job_count()));
    json.metric("cold_search_ms", cold_ms);
    json.metric("warm_search_ms", warm_ms);
    json.metric("warm_makespan_ms", warm.makespan.to_double_ms());
    json.write();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
