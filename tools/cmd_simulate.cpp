#include <algorithm>
#include <cstdio>
#include <map>

#include "commands.hpp"
#include "engine/engine.hpp"
#include "runtime/runtime.hpp"
#include "sim/gantt.hpp"

namespace fppn {
namespace tool {

int cmd_simulate(const Args& args) {
  const engine::SolveReport report = engine::solve_once(args.request);
  print_cache_line(report);
  if (!report.feasible()) {
    std::printf("warning: no feasible schedule found; simulating anyway\n");
  }
  const io::ParsedNetwork& parsed = *report.network;
  const DerivedTaskGraph& derived = *report.derived;
  // Random admissible sporadic scripts over the whole run.
  std::map<ProcessId, SporadicScript> scripts;
  const Time horizon =
      Time() + derived.hyperperiod * Rational(std::max<std::int64_t>(args.frames - 1, 0));
  std::uint64_t salt = args.request.config.seed;
  for (const auto& [p, info] : derived.servers) {
    (void)info;
    const EventSpec& spec = parsed.net.process(p).event;
    scripts.emplace(
        p, SporadicScript::random(spec.burst, spec.period, horizon, ++salt));
  }
  runtime::RunOptions opts;
  opts.frames = args.frames;
  opts.overhead = args.overhead;
  const RunResult run = runtime::make_runtime(args.runtime)
                            ->run(parsed.net, derived, report.search.best.schedule,
                                  opts, {}, scripts);
  std::printf("%s\n", run.trace.summary().c_str());
  GanttOptions gopts;
  std::printf("%s", render_gantt(run.trace, args.request.config.processors, gopts).c_str());
  return run.met_all_deadlines() ? 0 : 3;
}

}  // namespace tool
}  // namespace fppn
