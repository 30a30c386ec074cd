// The engine solve layer's request/report contract: one canonical way to
// describe a scheduling problem (SolveRequest), one consolidated knob set
// (SearchConfig) and one structured outcome (SolveReport).
//
// SearchConfig is the single user-facing source of the search plumbing:
// strategy restriction, seeds, workers, budget and cache directory/bounds.
// It derives the lower-level options in exactly one place
// (search_options()), and those pass down unchanged: ParallelSearchOptions
// yields one StrategyOptions per candidate, which the strategy (and
// optimize_priority) take as is. The determinism contract — same request,
// bit-identical winner, regardless of workers, cache warmth or cache
// contents — is therefore enforced once, for every caller
// (engine/engine.hpp holds the Engine that executes requests). Production search always runs the
// incremental evaluation kernel; the naive reference pipeline it must match lives in testing/reference_search.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/text_format.hpp"
#include "sched/parallel_search.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace engine {

/// Every knob a solve may depend on, consolidated. Field groups map onto
/// the lower layers as follows: processors/workers/strategies/seed and
/// the budget resolve into sched::ParallelSearchOptions (and from there
/// into one StrategyOptions per candidate); the cache group selects the
/// ScheduleCache the Engine attaches. search_options() is the only
/// translation site.
struct SearchConfig {
  std::int64_t processors = 2;
  /// Parallel-search worker threads; 0 = hardware concurrency.
  int workers = 0;
  /// Strategy names to try; empty = every registered strategy.
  std::vector<std::string> strategies;
  std::uint64_t seed = 1;

  /// Budget preset: false = the quick preset (1 seed per strategy, 400
  /// iterations, 1 restart), true = the optimizing preset (3 seeds, 2000
  /// iterations, 2 restarts) — the presets fppn_tool has always used.
  bool optimize = false;
  /// Explicit budget overrides; unset fields come from the preset.
  std::optional<int> seeds_per_strategy;
  std::optional<int> max_iterations;
  std::optional<int> restarts;

  // --- cache attachment -------------------------------------------------
  /// On-disk schedule cache directory; unset = no disk cache.
  std::optional<std::string> cache_dir;
  /// Master off-switch (--no-cache): no cache is attached even with a
  /// directory configured.
  bool no_cache = false;
  /// Attach the Engine's shared in-memory cache when no disk directory is
  /// given — the L1 of a long-lived engine (fppn_serve): repeat requests
  /// for a known fingerprint are answered without evaluating a candidate.
  bool memory_cache = false;
  /// Entry-count bound on the disk directory; 0 = unbounded.
  std::size_t cache_max_entries = 0;
  /// Byte-size bound on the disk directory's entry files; 0 = unbounded.
  std::uint64_t cache_max_bytes = 0;

  /// The resolved low-level options — the single place SearchConfig is
  /// translated for the search layers. Cache fields are handled by
  /// the Engine, not here. Deterministic; never throws.
  [[nodiscard]] sched::ParallelSearchOptions search_options() const;
};

/// One scheduling problem. Exactly one input source must be set; network
/// inputs are parsed and derived by the Engine, a pre-derived graph skips
/// both stages (benches, the fuzz loop).
struct SolveRequest {
  /// Path of a `.fppn` network file to load.
  std::optional<std::string> network_path;
  /// `.fppn` network text to parse in place (the fppn_serve wire format).
  std::optional<std::string> network_text;
  /// Pre-derived task graph (not owned; must outlive the call).
  const TaskGraph* graph = nullptr;

  // Derivation knobs — network inputs only.
  int unfold = 1;
  /// Uniform WCET override; unset networks must declare complete WCETs.
  std::optional<Duration> uniform_wcet;

  SearchConfig config;
};

/// Structured outcome of one solve — everything the printf-scattered
/// stats in the old tool reported, as data.
struct SolveReport {
  /// Winner schedule, feasibility, candidate/cache/evaluation counters.
  sched::ParallelSearchResult search;

  std::uint64_t fingerprint = 0;   ///< canonical task-graph fingerprint
  std::size_t jobs = 0;            ///< derived job count
  std::int64_t processors = 0;     ///< processor count solved for

  /// Cache accounting *of this solve* (stat deltas, not cumulative engine
  /// counters) when a cache was attached.
  bool cache_attached = false;
  std::string cache_directory;     ///< "" for the in-memory L1
  sched::CacheStats cache;

  /// Per-stage wall-clock timings (ms). Parse/derive are zero for
  /// pre-derived graph inputs; total_ms covers the whole solve() call
  /// (the engine half of a serving request's latency — the daemon adds
  /// queue wait on top).
  double parse_ms = 0.0;
  double derive_ms = 0.0;
  double search_ms = 0.0;
  double total_ms = 0.0;

  /// The parsed network / derived graph, when the Engine produced them —
  /// so callers (simulate, feasibility reports, gantt) never re-run the
  /// pipeline stages the solve already ran.
  std::optional<io::ParsedNetwork> network;
  std::optional<DerivedTaskGraph> derived;

  [[nodiscard]] bool feasible() const { return search.best.feasible; }
};

/// Loads and parses a network file. Throws std::runtime_error
/// ("cannot open '<path>'") for an unreadable file and io::ParseError /
/// std::invalid_argument for malformed content — same messages the tool
/// has always printed.
[[nodiscard]] io::ParsedNetwork load_network(const std::string& path);

/// Resolves the WCET map of a parsed network: the uniform override when
/// given, the declared per-process WCETs otherwise. Throws
/// std::runtime_error when neither covers every process.
[[nodiscard]] WcetMap resolve_wcets(const io::ParsedNetwork& parsed,
                                    const std::optional<Duration>& uniform_wcet);

/// Parse + derive for a network-input request (no search). Shared by
/// Engine::solve and callers that only need the graph (taskgraph,
/// roundtrip, fuzz replay).
[[nodiscard]] DerivedTaskGraph derive_network(const io::ParsedNetwork& parsed,
                                              const SolveRequest& request);

}  // namespace engine
}  // namespace fppn
