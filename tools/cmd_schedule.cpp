#include <cstdio>

#include "commands.hpp"
#include "engine/engine.hpp"

namespace fppn {
namespace tool {

int cmd_schedule(const Args& args) {
  const engine::SolveReport report = engine::solve_once(args.request);
  print_cache_line(report);
  print_search_report(report);
  if (!report.feasible()) {
    const FeasibilityReport feas =
        report.search.best.schedule.check_feasibility(report.derived->graph);
    std::printf("%s\n", feas.to_string(report.derived->graph).c_str());
  }
  if (args.gantt) {
    std::printf("%s",
                report.search.best.schedule.to_gantt(report.derived->graph, 100).c_str());
  }
  return report.feasible() ? 0 : 3;
}

}  // namespace tool
}  // namespace fppn
