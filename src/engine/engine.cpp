#include "engine/engine.hpp"

#include <chrono>
#include <stdexcept>

#include "sched/parallel_search.hpp"

namespace fppn {
namespace engine {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
}

sched::CacheStats stats_delta(const sched::CacheStats& before,
                              const sched::CacheStats& after) {
  sched::CacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.stores = after.stores - before.stores;
  d.disk_rejects = after.disk_rejects - before.disk_rejects;
  d.evictions = after.evictions - before.evictions;
  return d;
}

/// The inputs of a request, resolved to one task graph (plus the parse /
/// derive artifacts and their timings when the engine produced them).
struct ResolvedInput {
  const TaskGraph* graph = nullptr;
  std::optional<io::ParsedNetwork> network;
  std::optional<DerivedTaskGraph> derived;
  double parse_ms = 0.0;
  double derive_ms = 0.0;
};

ResolvedInput resolve_input(const SolveRequest& request) {
  ResolvedInput in;
  if (request.graph != nullptr) {
    if (request.network_path.has_value() || request.network_text.has_value()) {
      throw std::invalid_argument("SolveRequest: give exactly one input source");
    }
    in.graph = request.graph;
    return in;
  }
  const Clock::time_point parse_begin = Clock::now();
  if (request.network_path.has_value()) {
    if (request.network_text.has_value()) {
      throw std::invalid_argument("SolveRequest: give exactly one input source");
    }
    in.network = load_network(*request.network_path);
  } else if (request.network_text.has_value()) {
    in.network = io::parse_network_string(*request.network_text);
  } else {
    throw std::invalid_argument("SolveRequest: no input source set");
  }
  in.parse_ms = ms_since(parse_begin);
  const Clock::time_point derive_begin = Clock::now();
  in.derived = derive_network(*in.network, request);
  in.derive_ms = ms_since(derive_begin);
  in.graph = &in.derived->graph;
  return in;
}

}  // namespace

sched::ScheduleCache* Engine::cache_for(const SearchConfig& config) {
  if (config.no_cache) {
    return nullptr;
  }
  if (!config.cache_dir.has_value()) {
    return config.memory_cache ? &memory_cache_ : nullptr;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = disk_caches_.find(
      std::tie(*config.cache_dir, config.cache_max_entries, config.cache_max_bytes));
  if (it == disk_caches_.end()) {
    // Throws on a bad path: loud, not a silent miss.
    it = disk_caches_
             .emplace(DiskCacheKey{*config.cache_dir, config.cache_max_entries,
                                   config.cache_max_bytes},
                      std::make_unique<sched::ScheduleCache>(*config.cache_dir,
                                                             config.cache_max_entries,
                                                             config.cache_max_bytes))
             .first;
  }
  return it->second.get();
}

SolveReport Engine::solve(const SolveRequest& request) {
  const Clock::time_point solve_begin = Clock::now();
  ResolvedInput input = resolve_input(request);
  const TaskGraph& tg = *input.graph;

  sched::ParallelSearchOptions opts = request.config.search_options();
  sched::ScheduleCache* cache = cache_for(request.config);
  opts.cache = cache;
  const sched::CacheStats cache_before =
      cache != nullptr ? cache->stats() : sched::CacheStats{};

  SolveReport report;
  const Clock::time_point search_begin = Clock::now();
  report.search = sched::parallel_search(tg, opts);
  report.search_ms = ms_since(search_begin);

  report.fingerprint = report.search.fingerprint;
  report.jobs = tg.job_count();
  report.processors = request.config.processors;
  if (cache != nullptr) {
    report.cache_attached = true;
    report.cache_directory = cache->directory();
    report.cache = stats_delta(cache_before, cache->stats());
  }
  report.parse_ms = input.parse_ms;
  report.derive_ms = input.derive_ms;
  report.network = std::move(input.network);
  report.derived = std::move(input.derived);
  report.total_ms = ms_since(solve_begin);
  return report;
}

SolveReport solve_once(const SolveRequest& request) {
  Engine engine;
  return engine.solve(request);
}

SolveReport solve_graph(const TaskGraph& tg, const SearchConfig& config) {
  SolveRequest request;
  request.graph = &tg;
  request.config = config;
  return solve_once(request);
}

}  // namespace engine
}  // namespace fppn
