#include "sched/schedule_cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

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

struct EntryFile {
  fs::file_time_type mtime;
  std::string name;
  std::uint64_t bytes = 0;
};

/// Entry files in `directory`, oldest first: by modification time, then
/// name, so equal times order deterministically. A file that vanishes
/// while it is listed sorts oldest with zero bytes; enumeration failures
/// yield an empty list (the directory was validated at construction; a
/// racing removal is not an error).
std::vector<EntryFile> list_entries_oldest_first(const std::string& directory) {
  std::vector<EntryFile> files;
  std::error_code ec;
  for (fs::directory_iterator it(directory, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!is_entry_file(it->path())) {
      continue;
    }
    std::error_code stat_ec;
    EntryFile file;
    file.mtime = fs::last_write_time(it->path(), stat_ec);
    if (stat_ec) {
      file.mtime = fs::file_time_type::min();
    }
    file.name = it->path().filename().string();
    const std::uintmax_t size = fs::file_size(it->path(), stat_ec);
    file.bytes = stat_ec ? 0 : static_cast<std::uint64_t>(size);
    files.push_back(std::move(file));
  }
  std::sort(files.begin(), files.end(), [](const EntryFile& a, const EntryFile& b) {
    return std::tie(a.mtime, a.name) < std::tie(b.mtime, b.name);
  });
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
  return CacheKey{opts, graph_fingerprint, strategy};
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
    // The same collision safety net runs inside the load, so a garbage
    // entry file is neither promoted nor ranked newest under eviction.
    std::optional<Entry> loaded = load_from_disk(key, tg.job_count());
    if (loaded.has_value()) {
      // Promote so the next probe is O(log n); scored just below.
      entry = &memory_.emplace(key, std::move(*loaded)).first->second;
      touch_locked(key.filename());
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
  const io::ScheduleEntry entry{key, result.detail, result.schedule};

  // Shared temp-file + atomic-rename writer: concurrent stores of the
  // same key — same process or not — never leave a torn entry behind.
  const fs::path final_path = fs::path(directory_) / key.filename();
  try {
    io::write_file_atomic(final_path.string(), io::write_schedule_entry(entry));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("schedule cache: ") + e.what());
  }
  const std::lock_guard<std::mutex> lock(mu_);
  touch_locked(key.filename());
}

CacheGcStats ScheduleCache::evict_locked() {
  const std::vector<EntryFile> files = list_entries_oldest_first(directory_);
  CacheGcStats out;
  out.kept = files.size();
  if (!bounded()) {
    return out;
  }
  // Every victim stops counting against the bound, also one whose unlink
  // failed: it still occupies the directory, but evicting ever-more valid
  // entries to compensate would trade a transient filesystem blip for
  // real cache loss. The next pass retries the stuck victims.
  std::size_t counted = files.size();
  std::uint64_t counted_bytes = 0;
  for (const EntryFile& file : files) {
    counted_bytes += file.bytes;
  }
  for (const EntryFile& victim : files) {
    if ((max_entries_ == 0 || counted <= max_entries_) &&
        (max_bytes_ == 0 || counted_bytes <= max_bytes_)) {
      break;
    }
    --counted;
    counted_bytes -= victim.bytes;
    const fs::path path = fs::path(directory_) / victim.name;
    std::error_code probe_ec;
    if (testing::fault::unlink(path.c_str()) != 0 && errno != ENOENT &&
        fs::exists(path, probe_ec)) {
      ++out.evict_failures;
      continue;
    }
    --out.kept;
    ++out.evicted;
  }
  stats_.evictions += out.evicted;
  return out;
}

void ScheduleCache::touch_locked(const std::string& file) {
  // An explicit time rather than the write's own: the kernel stamps
  // writes from a coarse clock, so back-to-back stores could tie.
  std::error_code ec;
  fs::last_write_time(fs::path(directory_) / file, fs::file_time_type::clock::now(), ec);
  // A failure (read-only shared directory) leaves the old time: recency
  // is advisory and this is the hot path of every store and promoted hit.
  if (bounded()) {
    (void)evict_locked();
  }
}

CacheGcStats ScheduleCache::gc() {
  if (directory_.empty()) {
    return CacheGcStats{};
  }
  const std::lock_guard<std::mutex> lock(mu_);
  return evict_locked();
}

std::optional<ScheduleCache::Entry> ScheduleCache::load_from_disk(const CacheKey& key,
                                                                  std::size_t jobs) {
  const fs::path path = fs::path(directory_) / key.filename();
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;  // plain miss: the entry was never written
  }
  io::ScheduleEntry entry;
  try {
    entry = io::read_schedule_entry(in, jobs);
  } catch (const io::ParseError&) {
    ++stats_.disk_rejects;  // corrupt, different format version or job count
    return std::nullopt;
  }
  // The file name encodes the key, but verify the header provenance too:
  // a renamed or hand-edited entry must not satisfy the wrong query.
  if (entry != key) {
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
