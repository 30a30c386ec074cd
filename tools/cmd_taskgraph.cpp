#include <cstdio>

#include "commands.hpp"
#include "taskgraph/analysis.hpp"

namespace fppn {
namespace tool {

int cmd_taskgraph(const Args& args) {
  const auto parsed = engine::load_network(*args.request.network_path);
  const auto derived = engine::derive_network(parsed, args.request);
  if (args.dot) {
    std::printf("%s", derived.graph.to_dot().c_str());
    return 0;
  }
  std::printf("hyperperiod %s ms, %zu jobs, %zu edges (%zu removed by reduction)\n",
              derived.hyperperiod.to_string().c_str(), derived.graph.job_count(),
              derived.graph.edge_count(), derived.edges_removed);
  const LoadResult load_result = task_graph_load(derived.graph);
  std::printf("load %s (~%.4f) => >= %lld processor(s)\n",
              load_result.load.to_string().c_str(), load_result.load_value(),
              static_cast<long long>(load_result.min_processors()));
  std::printf("%s", derived.graph.to_table().c_str());
  return 0;
}

}  // namespace tool
}  // namespace fppn
