// The reactive-control case study (§V-B): the FMS subsystem of Fig. 7
// over one 10-second hyperperiod with sporadic pilot commands — task
// graph statistics, a single-processor deployment (the paper's Linux/i7
// run) and the best-computed-position trace.
#include <cstdio>

#include "apps/fms.hpp"
#include "engine/engine.hpp"
#include "runtime/runtime.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/derivation.hpp"

using namespace fppn;

int main() {
  const auto app = apps::build_fms();
  std::printf("FMS subsystem (Fig. 7): %zu processes (%zu sporadic), hyperperiod "
              "%s ms\n",
              app.net.process_count(), app.sporadics().size(),
              app.net.hyperperiod().to_string().c_str());

  const auto derived = derive_task_graph(app.net, app.default_wcets());
  const LoadResult load = task_graph_load(derived.graph);
  std::printf("task graph: %zu jobs, %zu edges, load %.3f (paper: 812 jobs, 1977 "
              "edges, ~0.23)\n\n",
              derived.graph.job_count(), derived.graph.edge_count(),
              load.load_value());

  // The quick search preset with a smaller iteration budget and no
  // restarts: the 812-job graph fits one processor with room to spare.
  engine::SearchConfig config;
  config.processors = 1;
  config.max_iterations = 200;
  config.restarts = 0;
  const sched::StrategyResult attempt = engine::solve_graph(derived.graph, config).search.best;
  std::printf("single-processor schedule: %s, makespan %s ms\n",
              attempt.feasible ? "feasible" : "INFEASIBLE",
              attempt.makespan.to_string().c_str());

  // One hyperperiod with pilot commands: a GPS reconfiguration at 2.3 s
  // and a performance-model update at 4.1 s.
  std::map<ProcessId, SporadicScript> commands;
  commands.emplace(app.gps_config, SporadicScript({Time::ms(2300)}, 2,
                                                  Duration::ms(200)));
  commands.emplace(app.performance_config,
                   SporadicScript({Time::ms(4100)}, 5, Duration::ms(1000)));
  const InputScripts inputs = app.make_inputs(55, /*seed=*/2026);

  const auto vm = runtime::make_runtime("vm");
  runtime::RunOptions opts;
  opts.frames = 1;
  const RunResult run =
      vm->run(app.net, derived, attempt.schedule, opts, inputs, commands);
  std::printf("run: %s\n", run.trace.summary().c_str());
  std::printf("deadline misses: %zu (paper: none on one processor)\n\n",
              run.misses.size());

  std::printf("best computed position (BCP), one sample per second:\n");
  const auto& bcp = run.histories.output_samples.at(app.bcp_out);
  for (std::size_t i = 0; i < bcp.size(); i += 5) {
    std::printf("  t=%5s ms  BCP = %s\n", bcp[i].time.to_string().c_str(),
                value_to_string(bcp[i].value).c_str());
  }
  const auto& fuel = run.histories.output_samples.at(app.fuel_out);
  std::printf("fuel prediction after %zu updates: %s\n", fuel.size(),
              value_to_string(fuel.back().value).c_str());

  // Determinism: re-run on two processors and compare histories.
  config.processors = 2;
  const sched::StrategyResult two = engine::solve_graph(derived.graph, config).search.best;
  const RunResult run2 =
      vm->run(app.net, derived, two.schedule, opts, inputs, commands);
  std::printf("\n2-processor run functionally equal to 1-processor run: %s\n",
              run.histories.functionally_equal(run2.histories) ? "yes" : "NO");
  return 0;
}
