// Content-addressed schedule cache: never solve the same (graph, strategy,
// seed, budget) query twice.
//
// Keys are CacheKey = (task-graph fingerprint, strategy name, seed,
// processor count, iteration budget, restart budget) — exactly the inputs
// a SchedulerStrategy's result may depend on. Values are the produced
// StaticSchedule plus the strategy's detail line. Scores (makespan,
// violations, feasibility) are never taken from the stored result: a
// memory-tier entry is scored once, with finalize_result, on its first
// hit against the query graph and keeps that score until store()
// overwrites the key; the disk tier re-scores an entry when it is
// promoted into memory. So a cached candidate ranks bit-identically to a
// freshly evaluated one in parallel_search's winner selection (the
// cold-vs-warm determinism contract, regression-tested in
// parallel_search_test.cpp).
//
// The cache is a pure memo: an entry answers only the exact key it was
// stored under, so what else the cache holds never changes a search's
// winner.
//
// Two tiers: an in-memory map (always on) and an optional on-disk
// directory with one versioned text file per entry (io/schedule_format.hpp;
// format documented in docs/FILE_FORMATS.md). Disk entries that are
// corrupt, of a different format version, or fail validation against the
// query (job count, processor count, key fields) are treated as misses and
// overwritten on the next store — a fingerprint collision can therefore
// never smuggle a wrong-sized schedule into a search.
//
// Lifecycle: a *bounded* (max_entries > 0 and/or max_bytes > 0)
// disk-backed cache maintains a recency index (io/cache_index.hpp,
// "<dir>/cache-index") — every store and every disk-promoted hit bumps
// the entry's logical sequence number, then evicts the oldest entries
// (lowest sequence) until the directory holds at most max_entries entry
// files summing to at most max_bytes, reconciling the index against
// the actual directory contents first so entries written by racing
// processes are seen (and bounded) too. Unbounded caches skip index
// maintenance on the hot path; gc() rebuilds recency from file
// modification times when needed. gc() runs the same reconcile+evict
// pass on demand — the engine behind `fppn_tool cache-gc`. The index is
// advisory: when missing or corrupt it is rebuilt from the entry files,
// never a hard error, and never a reason to drop a valid entry; an index
// that cannot be *written* (read-only shared directory) is silently left
// stale by lookup/store — only gc() reports that loudly. The in-memory
// tier is a per-process memo and is not evicted; eviction bounds the
// *directory*.
//
// Thread safety: lookup/store/stats/gc are safe to call concurrently on
// one ScheduleCache (internal mutex). Disk writes —
// entries and the index — go through a temp file + rename, so concurrent
// *processes* sharing a cache directory never observe torn files; racing
// index updates can lose a recency bump, which the next reconcile pass
// repairs (the bound itself always holds after any store or gc).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <map>

#include "io/cache_index.hpp"
#include "sched/strategy.hpp"
#include "taskgraph/fingerprint.hpp"

namespace fppn {
namespace sched {

/// Everything a strategy result may depend on besides the graph contents.
struct CacheKey {
  std::uint64_t fingerprint = 0;  ///< fingerprint(tg)
  std::string strategy;           ///< registry name
  std::uint64_t seed = 0;
  std::int64_t processors = 0;
  int max_iterations = 0;
  int restarts = 0;

  friend bool operator<(const CacheKey& a, const CacheKey& b) {
    return std::tie(a.fingerprint, a.strategy, a.seed, a.processors, a.max_iterations,
                    a.restarts) < std::tie(b.fingerprint, b.strategy, b.seed,
                                           b.processors, b.max_iterations, b.restarts);
  }
  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return !(a < b) && !(b < a);
  }

  /// Filesystem-safe entry file name, e.g.
  /// "3a1f...9c-local-search-m2-seed3-it2000-r2.sched". Strategy names are
  /// lowercase/dash by the registry contract, so no escaping is needed.
  [[nodiscard]] std::string filename() const;
};

/// Builds the key for one (strategy, seed) candidate from the options the
/// parallel search forwards to strategies. Deterministic; never throws.
[[nodiscard]] CacheKey make_cache_key(const TaskGraph& tg, const std::string& strategy,
                                      const StrategyOptions& opts);

/// Same, with the graph fingerprint precomputed — the parallel search
/// fingerprints once per call and keys every candidate from it.
[[nodiscard]] CacheKey make_cache_key(std::uint64_t graph_fingerprint,
                                      const std::string& strategy,
                                      const StrategyOptions& opts);

/// Monotonic counters; a snapshot is returned by ScheduleCache::stats().
struct CacheStats {
  std::size_t hits = 0;          ///< lookups answered (memory or disk)
  std::size_t misses = 0;        ///< lookups not answered
  std::size_t stores = 0;        ///< entries written
  std::size_t disk_rejects = 0;  ///< disk entries dropped (corrupt/mismatched)
  std::size_t evictions = 0;     ///< entry files removed by the size bound / gc
};

/// Outcome of one gc() pass over a disk-backed cache directory. Unlink
/// and index-publish failures are *warnings*, not errors: the pass keeps
/// going, the victim stays indexed, and the next pass retries — so an
/// injected (or real, e.g. NFS blip) filesystem failure can delay the
/// bound but never abort maintenance.
struct CacheGcStats {
  std::size_t kept = 0;       ///< entry files remaining after the pass
  std::size_t evicted = 0;    ///< entry files removed by this pass
  bool index_rebuilt = false; ///< the recency index was missing/corrupt
  std::size_t evict_failures = 0;  ///< victims whose unlink failed (kept, retried next pass)
  bool index_write_failed = false; ///< the rewritten index could not be published
};

class ScheduleCache {
 public:
  /// In-memory cache only.
  ScheduleCache() = default;

  /// In-memory + on-disk cache rooted at `directory`. Creates the leaf
  /// directory when missing; throws std::runtime_error with the failing
  /// path when the parent does not exist, the path is not a directory, or
  /// it cannot be created — a bad cache path is an error, never a silent
  /// permanent miss. With max_entries > 0 the directory is size-bounded:
  /// every store evicts down to max_entries entry files, oldest
  /// (least-recently stored/read) first. With max_bytes > 0 the *total
  /// size* of the entry files is bounded the same way: oldest entries are
  /// evicted until the remaining files sum to at most max_bytes (a bound
  /// smaller than the newest entry therefore empties the directory — the
  /// bound is a hard cap, not advisory). Both bounds may be combined;
  /// each 0 means unbounded on that axis. With neither bound set, no
  /// index is maintained on the hot path (a later gc() rebuilds recency
  /// from file modification times).
  explicit ScheduleCache(const std::string& directory, std::size_t max_entries = 0,
                         std::uint64_t max_bytes = 0);

  /// Returns the cached result for `key`, scored against `tg`
  /// (finalize_result), or nullopt on a miss. Memory is probed first,
  /// then disk; a disk hit is promoted into memory and (when bounded)
  /// bumps the entry's recency in the index — rejected entries are
  /// neither promoted nor touched. A memory entry is scored on its first
  /// hit (a promoted disk entry on promotion) and keeps that score for
  /// later hits, until store() overwrites the key. Entries whose job
  /// count, processor count or key provenance fields do not match the
  /// query are rejected (counted in CacheStats::disk_rejects) and treated
  /// as misses, scored or not. Throws only on allocation failure — an
  /// unwritable index is left stale, not an error.
  [[nodiscard]] std::optional<StrategyResult> lookup(const CacheKey& key,
                                                     const TaskGraph& tg);

  /// Stores `result` under `key`, overwriting any previous entry and its
  /// kept score, in memory and (when disk-backed) on disk. Only the
  /// schedule and detail are stored; the next lookup scores them. A
  /// bounded cache then updates the recency index and evicts down to
  /// max_entries. Entry write
  /// failures throw std::runtime_error with the failing path (the memory
  /// tier is updated first, so the in-process cache stays usable even if
  /// the throw is caught); an unwritable index is left stale, not an
  /// error.
  void store(const CacheKey& key, const StrategyResult& result);

  /// Reconciles the recency index with the actual directory contents
  /// (adopting entry files written by other processes, dropping records
  /// of deleted files, rebuilding a missing/corrupt index from file
  /// modification times) and, when the cache is bounded, evicts down to
  /// max_entries — the engine behind `fppn_tool cache-gc`. No-op for
  /// memory-only caches (returns all-zero stats). Never throws for
  /// filesystem failures: a victim that cannot be unlinked stays indexed
  /// and counts in evict_failures (retried next pass), and an index that
  /// cannot be published sets index_write_failed — the callers report
  /// both as warnings and keep serving.
  CacheGcStats gc();

  /// Counter snapshot (taken under the lock, so internally consistent).
  [[nodiscard]] CacheStats stats() const;

  /// Entries currently held in memory.
  [[nodiscard]] std::size_t size() const;

  /// Disk directory, empty for memory-only caches.
  [[nodiscard]] const std::string& directory() const noexcept { return directory_; }

  /// Entry-count bound on the disk directory; 0 = unbounded.
  [[nodiscard]] std::size_t max_entries() const noexcept { return max_entries_; }

  /// Byte-size bound on the disk directory's entry files; 0 = unbounded.
  [[nodiscard]] std::uint64_t max_bytes() const noexcept { return max_bytes_; }

 private:
  /// finalize_result's outputs, kept on a memory entry after its first hit.
  struct Score {
    Time makespan;
    bool feasible = false;
    std::size_t deadline_violations = 0;
  };

  struct Entry {
    StaticSchedule schedule;
    std::string detail;
    std::optional<Score> score;  ///< set on the first hit, dropped by store()
  };

  /// Disk probe; returns nullopt (and bumps disk_rejects when warranted)
  /// for missing/corrupt/mismatched entries, including an entry whose job
  /// count is not `jobs`. Caller holds the lock.
  [[nodiscard]] std::optional<Entry> load_from_disk(const CacheKey& key, std::size_t jobs);

  /// Reads the index file; rebuilds it from the entry files (ordered by
  /// modification time) when missing or corrupt. Caller holds the lock.
  [[nodiscard]] io::CacheIndex load_index_locked(bool* rebuilt) const;

  /// Adopts entry files absent from the index (name order, as newest) and
  /// drops records whose file is gone. Caller holds the lock.
  void reconcile_index_locked(io::CacheIndex& index) const;

  /// Removes oldest entries (and their files) until the index holds at
  /// most max_entries_ records (when bounded) whose files sum to at most
  /// max_bytes_ (when bounded). A victim whose file cannot be removed is
  /// skipped and kept in the index (counted in `failed`) — the bound is
  /// then enforced by the next pass. Caller holds the lock.
  struct EvictOutcome {
    std::size_t evicted = 0;
    std::size_t failed = 0;
  };
  EvictOutcome evict_locked(io::CacheIndex& index);

  /// Publishes the index atomically. Caller holds the lock.
  void save_index_locked(const io::CacheIndex& index) const;

  /// Bumps `file` in the on-disk index (load, touch, evict when bounded,
  /// save). Caller holds the lock.
  void touch_index_locked(const std::string& file);

  std::string directory_;
  std::size_t max_entries_ = 0;
  std::uint64_t max_bytes_ = 0;
  mutable std::mutex mu_;
  std::map<CacheKey, Entry> memory_;
  CacheStats stats_;
};

}  // namespace sched
}  // namespace fppn
