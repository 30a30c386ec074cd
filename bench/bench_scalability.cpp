// E5 (§V-B in-text): scalability of compile-time scheduling vs hyperperiod
// length — the paper hit "too high code generation overhead due to a long
// hyperperiod (40 s)" and reduced it to 10 s. This bench sweeps the
// MagnDeclin period (the hyperperiod lever) and synthetic multi-rate
// networks, reporting job/edge counts and derivation + scheduling time.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/fms.hpp"
#include "sched/registry.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/reference_derivation.hpp"

namespace {

using namespace fppn;

/// Synthetic multi-rate network: `chains` independent 3-process pipelines,
/// pipeline i at period base*(i%3+1), plus one slow process at period
/// base*multiplier forcing a long hyperperiod.
Network synthetic_network(int chains, std::int64_t base, std::int64_t multiplier) {
  NetworkBuilder b;
  for (int i = 0; i < chains; ++i) {
    const Duration period = Duration::ms(base * (i % 3 + 1));
    const std::string suffix = std::to_string(i);
    const ProcessId src =
        b.periodic("src" + suffix, period, period, no_op_behavior());
    const ProcessId mid =
        b.periodic("mid" + suffix, period, period, no_op_behavior());
    const ProcessId dst =
        b.periodic("dst" + suffix, period, period, no_op_behavior());
    b.fifo("a" + suffix, src, mid);
    b.fifo("b" + suffix, mid, dst);
    b.priority(src, mid);
    b.priority(mid, dst);
  }
  const Duration slow = Duration::ms(base * multiplier);
  b.periodic("slow", slow, slow, no_op_behavior());
  return std::move(b).build();
}

void print_report() {
  std::printf("=== Scalability: hyperperiod vs task-graph size and tool time ===\n");
  std::printf("(the paper's motivation for the 40 s -> 10 s reduction: an online\n");
  std::printf(" policy subroutine handling a few thousand jobs explicitly)\n\n");
  std::printf("%-22s %-12s %-8s %-8s\n", "FMS MagnDeclin period", "hyperperiod",
              "jobs", "edges");
  for (const bool reduced : {true, false}) {
    const auto app = apps::build_fms(reduced);
    const auto derived = derive_task_graph(app.net, app.default_wcets());
    std::printf("%-22s %-12s %-8zu %-8zu\n", reduced ? "400 ms (reduced)" : "1600 ms",
                derived.hyperperiod.to_string().c_str(), derived.graph.job_count(),
                derived.graph.edge_count());
  }
  std::printf("\n(paper: reduced variant = 812 jobs / 1977 edges)\n\n");
}

void BM_FmsDerivationByHyperperiod(benchmark::State& state) {
  const bool reduced = state.range(0) == 1;
  const auto app = apps::build_fms(reduced);
  const WcetMap wcets = app.default_wcets();
  for (auto _ : state) {
    auto derived = derive_task_graph(app.net, wcets);
    benchmark::DoNotOptimize(derived.graph.job_count());
  }
  state.SetLabel(reduced ? "H=10s" : "H=40s");
}
BENCHMARK(BM_FmsDerivationByHyperperiod)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// The same derivations through the reference derivation (edge by edge,
// then reduced on a Digraph copy): the production-vs-oracle ratio of the
// derivation layer.
void BM_FmsDerivationOracle(benchmark::State& state) {
  const bool reduced = state.range(0) == 1;
  const auto app = apps::build_fms(reduced);
  const WcetMap wcets = app.default_wcets();
  for (auto _ : state) {
    auto derived = testing::reference_derive_task_graph(app.net, wcets);
    benchmark::DoNotOptimize(derived.graph.job_count());
  }
  state.SetLabel(reduced ? "H=10s" : "H=40s");
}
BENCHMARK(BM_FmsDerivationOracle)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_SyntheticDerivation(benchmark::State& state) {
  const Network net =
      synthetic_network(static_cast<int>(state.range(0)), 100, state.range(1));
  for (auto _ : state) {
    auto derived = derive_task_graph(net, Duration::ms(2));
    benchmark::DoNotOptimize(derived.graph.job_count());
  }
  const auto derived = derive_task_graph(net, Duration::ms(2));
  state.SetLabel(std::to_string(derived.graph.job_count()) + " jobs");
}
BENCHMARK(BM_SyntheticDerivation)
    ->Args({4, 6})
    ->Args({8, 6})
    ->Args({8, 12})
    ->Args({16, 12})
    ->Args({16, 24})
    ->Unit(benchmark::kMillisecond);

void BM_SyntheticListSchedule(benchmark::State& state) {
  const Network net =
      synthetic_network(static_cast<int>(state.range(0)), 100, state.range(1));
  const auto derived = derive_task_graph(net, Duration::ms(2));
  for (auto _ : state) {
    sched::StrategyOptions sopts;
    sopts.processors = 4;
    auto s = sched::StrategyRegistry::global().create("alap-edf")
                 ->schedule(derived.graph, sopts);
    benchmark::DoNotOptimize(s.makespan);
  }
  state.SetLabel(std::to_string(derived.graph.job_count()) + " jobs");
}
BENCHMARK(BM_SyntheticListSchedule)
    ->Args({4, 6})
    ->Args({8, 6})
    ->Args({8, 12})
    ->Args({16, 12})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
