// engine::Engine — the one SolveRequest -> SolveReport pipeline every
// entry point (fppn_tool subcommands, fppn_serve, benches, the fuzz loop)
// goes through.
//
// solve() runs parse -> derive -> cache-attach -> search and reports
// structured stats instead of printing them. The pipeline is
// deterministic end to end: for a fixed request, the winning schedule is
// bit-identical regardless of worker threads, cache warmth or contents,
// or which entry point issued the request — the contract
// sched/parallel_search.hpp documents, enforced here in the single place
// requests are translated.
//
// An Engine is long-lived: it owns the shared in-memory ScheduleCache
// (the L1 of fppn_serve — SearchConfig::memory_cache) and one
// ScheduleCache instance per configured disk directory, reused across
// solves so repeat requests hit warm in-memory state. One-shot callers
// (the tool) simply construct, solve once and discard.
//
// Thread safety: solve() is safe to call concurrently on
// one Engine — cache instances are internally synchronized and per-solve
// state is local. This is what lets fppn_serve run one Engine under a
// worker pool.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "engine/solve.hpp"
#include "sched/schedule_cache.hpp"

namespace fppn {
namespace engine {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the full pipeline for `request` and returns the structured
  /// report. Throws std::runtime_error for unreadable files / missing
  /// WCETs / bad cache directories, io::ParseError for malformed
  /// network text, std::invalid_argument for bad options, and rethrows
  /// strategy exceptions — callers map these to their own exit codes.
  [[nodiscard]] SolveReport solve(const SolveRequest& request);

  /// The shared in-memory L1 attached by SearchConfig::memory_cache.
  /// Exposed so a daemon can report cumulative cache stats.
  [[nodiscard]] sched::ScheduleCache& memory_cache() { return memory_cache_; }

  /// Runs ScheduleCache::gc() on every disk-backed cache this Engine has
  /// opened (the daemon's background gc thread: re-enforce the
  /// entry/byte bounds while serving). Caches are created lazily by
  /// solves, so this is a no-op until a cache-configured request ran.
  /// Returns the pass totals; safe to call concurrently with solve().
  sched::CacheGcStats gc_disk_caches();

 private:
  /// The cache instance `config` asks for (shared per directory+bounds,
  /// created on first use), or nullptr when caching is off. Throws
  /// std::runtime_error for an unusable cache directory.
  sched::ScheduleCache* cache_for(const SearchConfig& config);

  std::mutex mu_;
  /// Disk-backed caches keyed by "dir|max_entries|max_bytes" — one shared
  /// instance per configuration, so concurrent solves share the memory
  /// tier and the eviction bookkeeping.
  std::map<std::string, std::unique_ptr<sched::ScheduleCache>> disk_caches_;
  sched::ScheduleCache memory_cache_;
};

/// One-shot convenience: construct a private Engine, solve, discard.
/// Callers that want cross-request cache reuse hold an Engine instead.
[[nodiscard]] SolveReport solve_once(const SolveRequest& request);

/// Convenience for pre-derived graphs (benches, differential runs): wraps
/// `tg` in a request with `config` and solves it one-shot.
[[nodiscard]] SolveReport solve_graph(const TaskGraph& tg, const SearchConfig& config);

}  // namespace engine
}  // namespace fppn
