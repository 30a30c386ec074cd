#include "sched/schedule_cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "io/schedule_format.hpp"
#include "testing/fault_injector.hpp"

namespace fppn {
namespace sched {

namespace fs = std::filesystem;

namespace {

constexpr const char* kEntrySuffix = ".sched";

bool is_entry_file(const fs::path& path) {
  const std::string name = path.filename().string();
  return name.size() > std::strlen(kEntrySuffix) &&
         name.compare(name.size() - std::strlen(kEntrySuffix), std::string::npos,
                      kEntrySuffix) == 0;
}

/// Entry file names in `directory`, name-sorted for deterministic
/// iteration. Enumeration failures yield an empty list (the directory was
/// validated at construction; a racing removal is not an error).
std::vector<std::string> list_entry_files(const std::string& directory) {
  std::vector<std::string> files;
  std::error_code ec;
  for (fs::directory_iterator it(directory, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (is_entry_file(it->path())) {
      files.push_back(it->path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

std::string CacheKey::filename() const {
  std::ostringstream out;
  out << fingerprint_hex(fingerprint) << '-' << strategy << "-m" << processors
      << "-seed" << seed << "-it" << max_iterations << "-r" << restarts << kEntrySuffix;
  return out.str();
}

CacheKey make_cache_key(std::uint64_t graph_fingerprint, const std::string& strategy,
                        const StrategyOptions& opts) {
  CacheKey key;
  key.fingerprint = graph_fingerprint;
  key.strategy = strategy;
  key.seed = opts.seed;
  key.processors = opts.processors;
  key.max_iterations = opts.max_iterations;
  key.restarts = opts.restarts;
  return key;
}

CacheKey make_cache_key(const TaskGraph& tg, const std::string& strategy,
                        const StrategyOptions& opts) {
  return make_cache_key(fingerprint(tg), strategy, opts);
}

ScheduleCache::ScheduleCache(const std::string& directory, std::size_t max_entries,
                             std::uint64_t max_bytes)
    : directory_(directory), max_entries_(max_entries), max_bytes_(max_bytes) {
  io::ensure_directory(directory_, "schedule cache");
}

std::optional<StrategyResult> ScheduleCache::lookup(const CacheKey& key,
                                                    const TaskGraph& tg) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = nullptr;
  const auto it = memory_.find(key);
  if (it != memory_.end()) {
    if (it->second.schedule.job_count() != tg.job_count()) {
      // Fingerprint collision safety net: never hand back a schedule
      // that cannot even index this graph's jobs — scored or not.
      ++stats_.disk_rejects;
      memory_.erase(it);
    } else {
      entry = &it->second;
    }
  } else if (!directory_.empty()) {
    std::optional<Entry> loaded = load_from_disk(key);
    if (loaded.has_value() && loaded->schedule.job_count() != tg.job_count()) {
      // Same collision safety net — rejected *before* the entry is
      // promoted or its recency bumped, so a garbage entry file never
      // ranks newest and outlives valid entries under eviction.
      ++stats_.disk_rejects;
    } else if (loaded.has_value()) {
      // Promote so the next probe is O(log n); scored just below.
      entry = &memory_.emplace(key, std::move(*loaded)).first->second;
      touch_index_locked(key.filename());
    }
  }
  if (entry == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  StrategyResult result;
  result.schedule = entry->schedule;
  result.strategy = key.strategy;
  result.detail = entry->detail;
  if (entry->score.has_value()) {
    result.makespan = entry->score->makespan;
    result.feasible = entry->score->feasible;
    result.deadline_violations = entry->score->deadline_violations;
  } else {
    // First hit: score against the query graph once, under the lock, so
    // concurrent first hits of one entry cannot race on the kept score.
    finalize_result(tg, result);
    entry->score = Score{result.makespan, result.feasible, result.deadline_violations};
  }
  return result;
}

void ScheduleCache::store(const CacheKey& key, const StrategyResult& result) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    memory_[key] = Entry{result.schedule, result.detail, std::nullopt};
    ++stats_.stores;
  }
  if (directory_.empty()) {
    return;
  }
  io::ScheduleEntry entry;
  entry.fingerprint = key.fingerprint;
  entry.strategy = key.strategy;
  entry.seed = key.seed;
  entry.processors = key.processors;
  entry.max_iterations = key.max_iterations;
  entry.restarts = key.restarts;
  entry.detail = result.detail;
  entry.schedule = result.schedule;

  // Shared temp-file + atomic-rename writer: concurrent stores of the
  // same key — same process or not — never leave a torn entry behind.
  const fs::path final_path = fs::path(directory_) / key.filename();
  try {
    io::write_file_atomic(final_path.string(), io::write_schedule_entry(entry));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("schedule cache: ") + e.what());
  }
  const std::lock_guard<std::mutex> lock(mu_);
  touch_index_locked(key.filename());
}

io::CacheIndex ScheduleCache::load_index_locked(bool* rebuilt) const {
  if (rebuilt != nullptr) {
    *rebuilt = false;
  }
  const fs::path index_path = fs::path(directory_) / io::kCacheIndexFilename;
  {
    std::ifstream in(index_path);
    if (in) {
      try {
        return io::read_cache_index(in);
      } catch (const io::ParseError&) {
        // Damaged index: fall through to the rebuild — never a hard error.
      }
    }
  }
  if (rebuilt != nullptr) {
    *rebuilt = true;
  }
  // Rebuild from the entry files, oldest modification first, so the
  // reconstructed recency order approximates the lost one. Name order
  // breaks mtime ties deterministically.
  struct Stamped {
    fs::file_time_type mtime;
    std::string file;
  };
  std::vector<Stamped> files;
  for (const std::string& file : list_entry_files(directory_)) {
    std::error_code ec;
    const fs::file_time_type mtime =
        fs::last_write_time(fs::path(directory_) / file, ec);
    files.push_back(Stamped{ec ? fs::file_time_type::min() : mtime, file});
  }
  std::stable_sort(files.begin(), files.end(), [](const Stamped& a, const Stamped& b) {
    if (a.mtime != b.mtime) {
      return a.mtime < b.mtime;
    }
    return a.file < b.file;
  });
  io::CacheIndex index;
  for (const Stamped& f : files) {
    index.touch(f.file);
  }
  return index;
}

void ScheduleCache::reconcile_index_locked(io::CacheIndex& index) const {
  const std::vector<std::string> on_disk = list_entry_files(directory_);
  // Drop records whose entry file is gone (evicted or removed by another
  // process).
  index.entries.erase(
      std::remove_if(index.entries.begin(), index.entries.end(),
                     [&](const io::CacheIndexEntry& e) {
                       return !std::binary_search(on_disk.begin(), on_disk.end(),
                                                  e.file);
                     }),
      index.entries.end());
  // Adopt files the index has never seen (stored by a racing process whose
  // index write lost): we cannot know their true recency, so rank them
  // newest — evicting a just-written entry would be worse than keeping a
  // slightly stale one.
  std::set<std::string> known;
  for (const io::CacheIndexEntry& e : index.entries) {
    known.insert(e.file);
  }
  for (const std::string& file : on_disk) {
    if (known.find(file) == known.end()) {
      index.touch(file);
    }
  }
}

ScheduleCache::EvictOutcome ScheduleCache::evict_locked(io::CacheIndex& index) {
  // Total entry-file bytes, consulted only under a byte bound. A file that
  // vanished between indexing and stat counts as zero — eviction then
  // simply drops its record.
  std::uint64_t total_bytes = 0;
  if (max_bytes_ > 0) {
    for (const io::CacheIndexEntry& e : index.entries) {
      std::error_code ec;
      const std::uintmax_t size = fs::file_size(fs::path(directory_) / e.file, ec);
      total_bytes += ec ? 0 : static_cast<std::uint64_t>(size);
    }
  }
  // `bound_slack` widens the effective bound by the entries whose unlink
  // failed: they still occupy the directory, but evicting ever-more valid
  // entries to compensate would trade a transient filesystem blip for
  // real cache loss. The next pass retries the stuck victims.
  std::size_t entry_slack = 0;
  std::uint64_t byte_slack = 0;
  const auto within_bounds = [&]() {
    if (max_entries_ > 0 && index.entries.size() > max_entries_ + entry_slack) {
      return false;
    }
    if (max_bytes_ > 0 && total_bytes > max_bytes_ + byte_slack) {
      return false;
    }
    return true;
  };
  EvictOutcome out;
  if (within_bounds()) {
    return out;
  }
  for (const io::CacheIndexEntry& victim : index.oldest_first()) {
    if (within_bounds()) {
      break;
    }
    const fs::path path = fs::path(directory_) / victim.file;
    std::uint64_t victim_bytes = 0;
    if (max_bytes_ > 0) {
      std::error_code size_ec;
      const std::uintmax_t size = fs::file_size(path, size_ec);
      victim_bytes = size_ec ? 0 : static_cast<std::uint64_t>(size);
    }
    if (testing::fault::unlink(path.c_str()) != 0 && errno != ENOENT) {
      std::error_code probe_ec;
      if (fs::exists(path, probe_ec)) {
        // Unlink failed and the file is still there: keep its index
        // record (dropping it would orphan the file outside the bound
        // forever) and count the failure — the next pass retries.
        ++out.failed;
        entry_slack += 1;
        byte_slack += victim_bytes;
        continue;
      }
    }
    total_bytes -= victim_bytes;
    index.erase(victim.file);
    ++out.evicted;
  }
  stats_.evictions += out.evicted;
  return out;
}

void ScheduleCache::save_index_locked(const io::CacheIndex& index) const {
  const fs::path index_path = fs::path(directory_) / io::kCacheIndexFilename;
  try {
    io::write_file_atomic(index_path.string(), io::write_cache_index(index));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("schedule cache: ") + e.what());
  }
}

void ScheduleCache::touch_index_locked(const std::string& file) {
  if (max_entries_ == 0 && max_bytes_ == 0) {
    // Unbounded caches skip index maintenance on the hot path entirely:
    // gc() rebuilds recency from file modification times when a bound is
    // ever wanted, and skipping saves a read-modify-write of the index
    // per store/hit (all under the lock).
    return;
  }
  io::CacheIndex index = load_index_locked(nullptr);
  index.touch(file);
  // Reconcile before bounding so the eviction pass sees entries written
  // by racing processes — the bound holds over the actual directory
  // contents, not just this process's view of them.
  reconcile_index_locked(index);
  (void)evict_locked(index);
  try {
    save_index_locked(index);
  } catch (const std::runtime_error&) {
    // The index is advisory and this is the hot path (every store and
    // every promoted hit): an unwritable index — e.g. a read-only shared
    // cache directory being consumed warm — must not fail lookups or
    // stores. The bound still held (evictions above are plain removes),
    // and gc() reports persistent index problems loudly.
  }
}

CacheGcStats ScheduleCache::gc() {
  CacheGcStats out;
  if (directory_.empty()) {
    return out;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  io::CacheIndex index = load_index_locked(&out.index_rebuilt);
  reconcile_index_locked(index);
  if (max_entries_ > 0 || max_bytes_ > 0) {
    const EvictOutcome eviction = evict_locked(index);
    out.evicted = eviction.evicted;
    out.evict_failures = eviction.failed;
  }
  out.kept = index.entries.size();
  try {
    save_index_locked(index);
  } catch (const std::runtime_error&) {
    // Degraded, not fatal: the index is advisory (a stale or missing one
    // is rebuilt from the entry files), so a publish failure must not
    // abort maintenance — report it and let the next pass retry.
    out.index_write_failed = true;
  }
  return out;
}

std::vector<StaticSchedule> ScheduleCache::feasible_schedules(
    std::uint64_t graph_fingerprint, const TaskGraph& tg) {
  std::vector<StaticSchedule> out;
  if (!directory_.empty()) {
    // The file name starts with the 16-hex-digit fingerprint, so the
    // directory scan needs to parse only this graph's entries.
    const std::string prefix = fingerprint_hex(graph_fingerprint) + "-";
    for (const std::string& file : list_entry_files(directory_)) {
      if (file.compare(0, prefix.size(), prefix) != 0) {
        continue;
      }
      std::ifstream in(fs::path(directory_) / file);
      if (!in) {
        continue;  // evicted between listing and open — not an error
      }
      io::ScheduleEntry entry;
      try {
        entry = io::read_schedule_entry(in);
      } catch (const io::ParseError&) {
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.disk_rejects;
        continue;
      }
      if (entry.fingerprint != graph_fingerprint ||
          entry.schedule.job_count() != tg.job_count()) {
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.disk_rejects;
        continue;
      }
      if (entry.schedule.count_violations(tg).feasible()) {
        out.push_back(std::move(entry.schedule));
      }
    }
    return out;
  }
  // Memory-only tier: keys sort by fingerprint first, so the matching
  // range is contiguous and already in deterministic key order. A scored
  // entry answers from its kept feasibility; only never-hit entries are
  // checked, outside the lock.
  std::vector<std::pair<StaticSchedule, bool>> candidates;  // (schedule, scored)
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto it = memory_.lower_bound(CacheKey{graph_fingerprint, "", 0, 0, 0, 0});
         it != memory_.end() && it->first.fingerprint == graph_fingerprint; ++it) {
      const Entry& e = it->second;
      if (e.schedule.job_count() == tg.job_count() &&
          (!e.score.has_value() || e.score->feasible)) {
        candidates.emplace_back(e.schedule, e.score.has_value());
      }
    }
  }
  for (auto& [schedule, scored] : candidates) {
    if (scored || schedule.count_violations(tg).feasible()) {
      out.push_back(std::move(schedule));
    }
  }
  return out;
}

std::optional<WarmStartMemo> ScheduleCache::lookup_warm_start(const WarmStartKey& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = warm_memos_.find(key);
  if (it == warm_memos_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void ScheduleCache::store_warm_start(const WarmStartKey& key, WarmStartMemo memo) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Memos of these options sort contiguously (the digest is the last key
  // field). Any other digest was read against an older warm-start set;
  // the cached schedules of a fingerprint rarely shrink back to it, and
  // if they do, dropping its memo costs one recompute.
  WarmStartKey first = key;
  first.starts_digest = {};
  auto it = warm_memos_.lower_bound(first);
  while (it != warm_memos_.end() && it->first.options() == key.options()) {
    it = warm_memos_.erase(it);
  }
  warm_memos_.emplace(key, std::move(memo));
}

std::optional<ScheduleCache::Entry> ScheduleCache::load_from_disk(const CacheKey& key) {
  const fs::path path = fs::path(directory_) / key.filename();
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;  // plain miss: the entry was never written
  }
  io::ScheduleEntry entry;
  try {
    entry = io::read_schedule_entry(in);
  } catch (const io::ParseError&) {
    ++stats_.disk_rejects;  // corrupt or different format version
    return std::nullopt;
  }
  // The file name encodes the key, but verify the header provenance too:
  // a renamed or hand-edited entry must not satisfy the wrong query.
  if (entry.fingerprint != key.fingerprint || entry.strategy != key.strategy ||
      entry.seed != key.seed || entry.processors != key.processors ||
      entry.max_iterations != key.max_iterations || entry.restarts != key.restarts) {
    ++stats_.disk_rejects;
    return std::nullopt;
  }
  return Entry{std::move(entry.schedule), std::move(entry.detail), std::nullopt};
}

CacheStats ScheduleCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ScheduleCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return memory_.size();
}

}  // namespace sched
}  // namespace fppn
