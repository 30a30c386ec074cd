// E3 (Fig. 5 + Fig. 6, §V-A): the FFT streaming application on the
// virtual MPPA platform — loads with and without the runtime-overhead
// job, deadline misses of the 1- vs 2-processor mapping under the
// measured 41/20 ms frame overhead, and the execution Gantt chart.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/fft.hpp"
#include "engine/engine.hpp"
#include "runtime/runtime.hpp"
#include "sim/gantt.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/derivation.hpp"

namespace {

using namespace fppn;

constexpr int kFrames = 4;

DerivedTaskGraph derive_fft(const apps::FftApp& app) {
  return derive_task_graph(app.net, app.uniform_wcets(Duration::ratio_ms(40, 3)));
}

InputScripts fft_inputs(const apps::FftApp& app) {
  std::vector<std::vector<double>> frames;
  for (int f = 0; f < kFrames + 1; ++f) {
    std::vector<double> block;
    for (int i = 0; i < app.points; ++i) {
      block.push_back(static_cast<double>((f * 31 + i * 7) % 13) - 6.0);
    }
    frames.push_back(std::move(block));
  }
  return app.make_inputs(frames);
}

void print_report() {
  const auto app = apps::build_fft(8);
  auto derived = derive_fft(app);

  std::printf("=== Fig. 5/6: FFT on the virtual MPPA platform ===\n");
  std::printf("network: %zu processes (generator + %dx%zu butterflies + consumer), "
              "T = d = 200 ms, C = 40/3 ms (~13.3; paper: 'roughly 14')\n",
              app.net.process_count(), app.stages,
              app.butterflies.empty() ? 0 : app.butterflies[0].size());

  const LoadResult base = task_graph_load(derived.graph);
  std::printf("load without overhead job: %.4f (paper: 0.93)\n", base.load_value());

  // The paper models the 41 ms arrival overhead as an extra job with a
  // precedence edge to the generator.
  auto loaded = derive_fft(app);
  Job oh;
  oh.process = ProcessId{app.net.process_count()};
  oh.arrival = Time::ms(0);
  oh.deadline = Time::ms(200);
  oh.wcet = Duration::ms(41);
  oh.name = "RT[1]";
  const JobId oid = loaded.graph.add_job(oh);
  loaded.graph.add_edge(oid, *loaded.graph.find("generator[1]"));
  const LoadResult with = task_graph_load(loaded.graph);
  std::printf("load with 41 ms overhead job: %.4f (paper: ~1.2) -> needs >= %lld "
              "processors\n\n",
              with.load_value(), static_cast<long long>(with.min_processors()));

  std::printf("%-6s %-10s %-12s %-14s %s\n", "procs", "feasible?", "misses/4fr",
              "overhead", "summary");
  for (const std::int64_t m : {1, 2, 3}) {
    engine::SearchConfig config;
    config.processors = m;
    const sched::StrategyResult attempt = engine::solve_graph(derived.graph, config).search.best;
    runtime::RunOptions opts;
    opts.frames = kFrames;
    opts.overhead = OverheadModel::mppa_measured();
    const RunResult run = runtime::make_runtime("vm")->run(
        app.net, derived, attempt.schedule, opts, fft_inputs(app), {});
    std::printf("%-6lld %-10s %-12zu 41/20 ms      %s\n",
                static_cast<long long>(m), attempt.feasible ? "yes" : "no",
                run.misses.size(), run.trace.summary().c_str());
    if (m == 2) {
      std::printf("\nGantt (two processors, first two frames; RT row = runtime "
                  "overhead, Fig. 6):\n");
      GanttOptions gopts;
      gopts.to = Time::ms(400);
      std::printf("%s\n", render_gantt(run.trace, m, gopts).c_str());
    }
  }
  std::printf("paper: single-processor mapping missed deadlines due to runtime "
              "overhead; two processors showed none.\n\n");
}

void BM_VmRunFft(benchmark::State& state) {
  const auto app = apps::build_fft(8);
  const auto derived = derive_fft(app);
  engine::SearchConfig config;
  config.processors = state.range(0);
  const auto attempt = engine::solve_graph(derived.graph, config).search.best;
  const InputScripts inputs = fft_inputs(app);
  const auto vm = runtime::make_runtime("vm");
  runtime::RunOptions opts;
  opts.frames = kFrames;
  opts.overhead = OverheadModel::mppa_measured();
  for (auto _ : state) {
    auto run = vm->run(app.net, derived, attempt.schedule, opts, inputs, {});
    benchmark::DoNotOptimize(run.misses.size());
  }
}
BENCHMARK(BM_VmRunFft)->Arg(1)->Arg(2);

void BM_FftDerivationBySize(benchmark::State& state) {
  const int points = static_cast<int>(state.range(0));
  const auto app = apps::build_fft(points);
  const WcetMap wcets = app.uniform_wcets(Duration::ms(1));
  for (auto _ : state) {
    auto derived = derive_task_graph(app.net, wcets);
    benchmark::DoNotOptimize(derived.graph.edge_count());
  }
  state.SetComplexityN(points);
}
BENCHMARK(BM_FftDerivationBySize)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity();

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
