#include "engine/solve.hpp"

#include <fstream>
#include <stdexcept>

namespace fppn {
namespace engine {

sched::ParallelSearchOptions SearchConfig::search_options() const {
  // Explicit overrides beat the preset.
  const sched::SearchPreset& preset = optimize ? sched::kOptimizePreset : sched::kQuickPreset;
  sched::ParallelSearchOptions opts;
  opts.processors = processors;
  opts.seed = seed;
  opts.max_iterations = max_iterations.value_or(preset.max_iterations);
  opts.restarts = restarts.value_or(preset.restarts);
  opts.workers = workers;
  opts.strategies = strategies;
  opts.seeds_per_strategy = seeds_per_strategy.value_or(preset.seeds_per_strategy);
  return opts;
}

io::ParsedNetwork load_network(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  return io::parse_network(in);
}

WcetMap resolve_wcets(const io::ParsedNetwork& parsed,
                      const std::optional<Duration>& uniform_wcet) {
  if (uniform_wcet.has_value()) {
    WcetMap map;
    for (std::size_t i = 0; i < parsed.net.process_count(); ++i) {
      map.emplace(ProcessId{i}, *uniform_wcet);
    }
    return map;
  }
  if (!parsed.wcets_complete) {
    throw std::runtime_error(
        "network lacks wcet= on some processes; pass --wcet C");
  }
  return parsed.wcets;
}

DerivedTaskGraph derive_network(const io::ParsedNetwork& parsed,
                                const SolveRequest& request) {
  DerivationOptions opts;
  opts.unfolding = request.unfold;
  return derive_task_graph(parsed.net, resolve_wcets(parsed, request.uniform_wcet),
                           opts);
}

}  // namespace engine
}  // namespace fppn
