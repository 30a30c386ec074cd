#include <cstdio>

#include "commands.hpp"
#include "sched/schedule_cache.hpp"

namespace fppn {
namespace tool {

/// Offline cache maintenance: with --cache-max-entries /
/// --cache-max-bytes, evict the least-recently used entry files (oldest
/// modification time first) down to the bounds; without, count them —
/// the CLI face of sched::ScheduleCache::gc().
int cmd_cache_gc(const Args& args) {
  const engine::SearchConfig& config = args.request.config;
  if (!config.cache_dir.has_value()) {
    std::fprintf(stderr, "fppn_tool: cache-gc requires --cache-dir D\n");
    return 2;
  }
  sched::ScheduleCache cache(*config.cache_dir, config.cache_max_entries,
                             config.cache_max_bytes);
  const sched::CacheGcStats gc = cache.gc();
  const bool unbounded = config.cache_max_entries == 0 && config.cache_max_bytes == 0;
  std::printf("cache-gc '%s': %zu kept, %zu evicted%s\n", cache.directory().c_str(),
              gc.kept, gc.evicted, unbounded ? " (no bound given)" : "");
  // Filesystem failures degraded to warnings (gc() never throws for
  // them); the next pass retries, so they are loud but not fatal.
  if (gc.evict_failures > 0) {
    std::fprintf(stderr,
                 "cache-gc warning: %zu eviction(s) failed (kept, retried next pass)\n",
                 gc.evict_failures);
  }
  return 0;
}

}  // namespace tool
}  // namespace fppn
