#include "engine/solve.hpp"

#include <fstream>
#include <stdexcept>

namespace fppn {
namespace engine {

sched::ParallelSearchOptions SearchConfig::search_options() const {
  sched::ParallelSearchOptions opts;
  opts.processors = processors;
  opts.workers = workers;
  opts.strategies = strategies;
  opts.base_seed = seed;
  // The two presets fppn_tool has always used: a plain call keeps
  // iterative strategies on a small budget so it stays quick; --optimize
  // buys the full fan-out. Explicit overrides beat the preset.
  if (optimize) {
    opts.seeds_per_strategy = 3;
    opts.max_iterations = 2000;
    opts.restarts = 2;
  } else {
    opts.seeds_per_strategy = 1;
    opts.max_iterations = 400;
    opts.restarts = 1;
  }
  if (seeds_per_strategy.has_value()) {
    opts.seeds_per_strategy = *seeds_per_strategy;
  }
  if (max_iterations.has_value()) {
    opts.max_iterations = *max_iterations;
  }
  if (restarts.has_value()) {
    opts.restarts = *restarts;
  }
  opts.warm_start = warm_start;
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
