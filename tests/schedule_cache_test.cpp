// Schedule cache: entry round-trip through the versioned text format,
// memory/disk lookup semantics (including the score kept on a memory
// entry after its first hit), validation of mismatched or corrupt
// entries, and the loud-failure contract for bad cache directories.
#include "sched/schedule_cache.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>

#include "apps/fig1.hpp"
#include "io/schedule_format.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("fppn_cache_test_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DerivedTaskGraph fig1_graph() {
  const auto app = apps::build_fig1();
  return derive_task_graph(app.net, app.fig3_wcets());
}

sched::StrategyResult evaluate(const TaskGraph& tg, std::int64_t processors) {
  sched::StrategyResult result;
  result.strategy = "alap-edf";
  result.detail = "list schedule, SP heuristic alap-edf";
  result.schedule = testing::list_schedule(tg, PriorityHeuristic::kAlapEdf, processors);
  sched::finalize_result(tg, result);
  return result;
}

sched::CacheKey key_for(const TaskGraph& tg, std::int64_t processors) {
  sched::StrategyOptions opts;
  opts.processors = processors;
  opts.seed = 1;
  opts.max_iterations = 400;
  opts.restarts = 1;
  return sched::make_cache_key(fingerprint(tg), "alap-edf", opts);
}

TEST(ScheduleFormat, EntryRoundTripsBitIdentically) {
  const auto derived = fig1_graph();
  const auto result = evaluate(derived.graph, 2);

  io::ScheduleEntry entry;
  entry.fingerprint = fingerprint(derived.graph);
  entry.strategy = result.strategy;
  // Full-range uint64 seed: values >= 2^63 must survive the round-trip.
  entry.seed = std::numeric_limits<std::uint64_t>::max() - 6;
  entry.processors = 2;
  entry.max_iterations = 400;
  entry.restarts = 1;
  entry.detail = result.detail;
  entry.schedule = result.schedule;

  const std::string text = io::write_schedule_entry(entry);
  const io::ScheduleEntry back = io::read_schedule_entry_string(text);
  EXPECT_EQ(back.fingerprint, entry.fingerprint);
  EXPECT_EQ(back.strategy, entry.strategy);
  EXPECT_EQ(back.seed, entry.seed);
  EXPECT_EQ(back.processors, entry.processors);
  EXPECT_EQ(back.max_iterations, entry.max_iterations);
  EXPECT_EQ(back.restarts, entry.restarts);
  EXPECT_EQ(back.detail, entry.detail);
  ASSERT_EQ(back.schedule.job_count(), entry.schedule.job_count());
  for (std::size_t i = 0; i < entry.schedule.job_count(); ++i) {
    const JobId id(i);
    ASSERT_TRUE(back.schedule.is_placed(id));
    EXPECT_EQ(back.schedule.placement(id).processor,
              entry.schedule.placement(id).processor);
    EXPECT_EQ(back.schedule.placement(id).start, entry.schedule.placement(id).start);
  }
}

TEST(ScheduleFormat, PartialSchedulesRoundTrip) {
  io::ScheduleEntry entry;
  entry.strategy = "x";
  entry.processors = 2;
  entry.schedule = StaticSchedule(3, 2);
  entry.schedule.place(JobId(1), ProcessorId(0), Time() + Duration::ratio_ms(40, 3));
  const io::ScheduleEntry back =
      io::read_schedule_entry_string(io::write_schedule_entry(entry));
  EXPECT_FALSE(back.schedule.is_placed(JobId(0)));
  ASSERT_TRUE(back.schedule.is_placed(JobId(1)));
  EXPECT_EQ(back.schedule.placement(JobId(1)).start.value(), Rational(40, 3));
  EXPECT_FALSE(back.schedule.is_placed(JobId(2)));
}

TEST(ScheduleFormat, RejectsWrongVersionAndCorruption) {
  const auto derived = fig1_graph();
  io::ScheduleEntry entry;
  entry.strategy = "alap-edf";
  entry.processors = 2;
  entry.schedule = evaluate(derived.graph, 2).schedule;
  std::string text = io::write_schedule_entry(entry);

  {
    std::string wrong = text;
    wrong.replace(wrong.find("v1"), 2, "v9");
    EXPECT_THROW((void)io::read_schedule_entry_string(wrong), io::ParseError);
  }
  {
    // Truncation: drop the "end" trailer and the last placement line.
    const std::string truncated = text.substr(0, text.rfind("place"));
    EXPECT_THROW((void)io::read_schedule_entry_string(truncated), io::ParseError);
  }
  {
    std::string bad = text;
    bad.replace(bad.find("place 0"), 7, "place 999");
    EXPECT_THROW((void)io::read_schedule_entry_string(bad), io::ParseError);
  }
  EXPECT_THROW((void)io::read_schedule_entry_string("not a schedule\n"), io::ParseError);
}

TEST(ScheduleFormat, TrailingGarbageAfterEndIsAParseError) {
  // A truncated entry concatenated with another file must not half-parse:
  // anything non-blank after "end" is rejected. Trailing blank lines are
  // harmless.
  const auto derived = fig1_graph();
  io::ScheduleEntry entry;
  entry.strategy = "alap-edf";
  entry.processors = 2;
  entry.schedule = evaluate(derived.graph, 2).schedule;
  const std::string text = io::write_schedule_entry(entry);

  EXPECT_THROW((void)io::read_schedule_entry_string(text + "stray line\n"),
               io::ParseError);
  EXPECT_THROW((void)io::read_schedule_entry_string(text + text), io::ParseError);
  EXPECT_NO_THROW((void)io::read_schedule_entry_string(text + "\n  \n"));
}

TEST(ScheduleCache, TrailingGarbageDiskEntryIsAMissNotAnError) {
  // The cache keeps its forgiving contract for the stricter parser: a
  // disk entry with appended garbage is a rejected miss, never an error
  // and never a half-parsed hit.
  const TempDir dir("trailing");
  const auto derived = fig1_graph();
  const auto key = key_for(derived.graph, 2);
  {
    sched::ScheduleCache writer(dir.path());
    writer.store(key, evaluate(derived.graph, 2));
  }
  {
    std::ofstream out(fs::path(dir.path()) / key.filename(), std::ios::app);
    out << "garbage appended after a complete entry\n";
  }
  sched::ScheduleCache reader(dir.path());
  EXPECT_FALSE(reader.lookup(key, derived.graph).has_value());
  EXPECT_EQ(reader.stats().disk_rejects, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ScheduleCache, MemoryHitAfterStore) {
  const auto derived = fig1_graph();
  sched::ScheduleCache cache;
  const auto key = key_for(derived.graph, 2);
  EXPECT_FALSE(cache.lookup(key, derived.graph).has_value());

  const auto result = evaluate(derived.graph, 2);
  cache.store(key, result);
  const auto hit = cache.lookup(key, derived.graph);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->strategy, result.strategy);
  EXPECT_EQ(hit->detail, result.detail);
  EXPECT_EQ(hit->makespan, result.makespan);
  EXPECT_EQ(hit->feasible, result.feasible);
  EXPECT_EQ(hit->deadline_violations, result.deadline_violations);

  const sched::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(ScheduleCache, KeyDiscriminatesEveryField) {
  const auto derived = fig1_graph();
  sched::ScheduleCache cache;
  const auto key = key_for(derived.graph, 2);
  cache.store(key, evaluate(derived.graph, 2));

  sched::CacheKey other = key;
  other.seed = 2;
  EXPECT_FALSE(cache.lookup(other, derived.graph).has_value()) << "seed";
  other = key;
  other.strategy = "b-level";
  EXPECT_FALSE(cache.lookup(other, derived.graph).has_value()) << "strategy";
  other = key;
  other.processors = 3;
  EXPECT_FALSE(cache.lookup(other, derived.graph).has_value()) << "processors";
  other = key;
  other.max_iterations = 2000;
  EXPECT_FALSE(cache.lookup(other, derived.graph).has_value()) << "iterations";
  other = key;
  other.restarts = 5;
  EXPECT_FALSE(cache.lookup(other, derived.graph).has_value()) << "restarts";
  other = key;
  other.fingerprint ^= 1;
  EXPECT_FALSE(cache.lookup(other, derived.graph).has_value()) << "fingerprint";
}

TEST(ScheduleCache, DiskEntrySurvivesNewCacheInstance) {
  const TempDir dir("persist");
  const auto derived = fig1_graph();
  const auto key = key_for(derived.graph, 2);
  const auto result = evaluate(derived.graph, 2);
  {
    sched::ScheduleCache writer(dir.path());
    writer.store(key, result);
  }
  sched::ScheduleCache reader(dir.path());
  const auto hit = reader.lookup(key, derived.graph);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->makespan, result.makespan);
  EXPECT_EQ(hit->detail, result.detail);
  for (std::size_t i = 0; i < derived.graph.job_count(); ++i) {
    const JobId id(i);
    EXPECT_EQ(hit->schedule.placement(id).processor,
              result.schedule.placement(id).processor);
    EXPECT_EQ(hit->schedule.placement(id).start, result.schedule.placement(id).start);
  }
}

TEST(ScheduleCache, CorruptDiskEntryIsAMissNotAnError) {
  const TempDir dir("corrupt");
  const auto derived = fig1_graph();
  const auto key = key_for(derived.graph, 2);
  {
    std::ofstream out(fs::path(dir.path()) / key.filename());
    out << "garbage\n";
  }
  sched::ScheduleCache cache(dir.path());
  EXPECT_FALSE(cache.lookup(key, derived.graph).has_value());
  EXPECT_EQ(cache.stats().disk_rejects, 1u);
  // A store then repairs the entry in place.
  cache.store(key, evaluate(derived.graph, 2));
  sched::ScheduleCache fresh(dir.path());
  EXPECT_TRUE(fresh.lookup(key, derived.graph).has_value());
}

TEST(ScheduleCache, DiskHeaderDiscriminatesEveryField) {
  // A renamed or hand-edited entry can never satisfy the wrong query: an
  // entry under the key's file name whose header differs from the key in
  // exactly one field is a miss and one disk reject.
  const TempDir dir("provenance");
  const auto derived = fig1_graph();
  const auto key = key_for(derived.graph, 2);
  const auto result = evaluate(derived.graph, 2);
  const fs::path path = fs::path(dir.path()) / key.filename();
  const auto write = [&](const io::ScheduleEntry& entry) {
    std::ofstream out(path, std::ios::trunc);
    out << io::write_schedule_entry(entry);
  };

  write(io::ScheduleEntry{key, result.detail, result.schedule});
  {
    sched::ScheduleCache cache(dir.path());
    EXPECT_TRUE(cache.lookup(key, derived.graph).has_value()) << "unedited";
    EXPECT_EQ(cache.stats().disk_rejects, 0u);
  }

  const struct {
    const char* field;
    void (*edit)(sched::CacheKey&);
  } edits[] = {
      {"fingerprint", [](sched::CacheKey& k) { k.fingerprint ^= 1; }},
      {"strategy", [](sched::CacheKey& k) { k.strategy = "b-level"; }},
      {"seed", [](sched::CacheKey& k) { k.seed = 2; }},
      {"processors", [](sched::CacheKey& k) { k.processors = 3; }},
      {"iterations", [](sched::CacheKey& k) { k.max_iterations = 2000; }},
      {"restarts", [](sched::CacheKey& k) { k.restarts = 5; }},
  };
  for (const auto& [field, edit] : edits) {
    io::ScheduleEntry entry{key, result.detail, result.schedule};
    edit(entry);
    write(entry);
    sched::ScheduleCache cache(dir.path());
    EXPECT_FALSE(cache.lookup(key, derived.graph).has_value()) << field;
    EXPECT_EQ(cache.stats().disk_rejects, 1u) << field;
  }
}

TEST(ScheduleCache, MismatchedJobCountIsRejected) {
  // Fingerprint-collision safety net: an entry whose schedule cannot index
  // the queried graph must never be returned.
  const TempDir dir("mismatch");
  const auto derived = fig1_graph();
  const auto key = key_for(derived.graph, 2);
  sched::ScheduleCache cache(dir.path());
  cache.store(key, evaluate(derived.graph, 2));

  TaskGraph bigger(derived.graph.hyperperiod());
  for (std::size_t i = 0; i < derived.graph.job_count() + 1; ++i) {
    Job j;
    j.process = ProcessId{i};
    j.arrival = Time::ms(0);
    j.deadline = Time::ms(100);
    j.wcet = Duration::ms(1);
    j.name = "g" + std::to_string(i);
    bigger.add_job(j);
  }
  EXPECT_FALSE(cache.lookup(key, bigger).has_value());
  EXPECT_GE(cache.stats().disk_rejects, 1u);
}

TEST(ScheduleCache, MismatchedJobCountIsRejectedForAScoredMemoryEntry) {
  // The kept score of a memory entry does not bypass the safety net: an
  // entry already scored by a hit is still rejected for a graph whose
  // jobs it cannot index.
  const auto derived = fig1_graph();
  const auto key = key_for(derived.graph, 2);
  sched::ScheduleCache cache;
  cache.store(key, evaluate(derived.graph, 2));
  ASSERT_TRUE(cache.lookup(key, derived.graph).has_value());  // scores the entry

  TaskGraph bigger(derived.graph.hyperperiod());
  for (std::size_t i = 0; i < derived.graph.job_count() + 1; ++i) {
    Job j;
    j.process = ProcessId{i};
    j.arrival = Time::ms(0);
    j.deadline = Time::ms(100);
    j.wcet = Duration::ms(1);
    j.name = "g" + std::to_string(i);
    bigger.add_job(j);
  }
  EXPECT_FALSE(cache.lookup(key, bigger).has_value());
  EXPECT_EQ(cache.stats().disk_rejects, 1u);
  EXPECT_EQ(cache.size(), 0u);  // dropped, not kept for a later query
}

TEST(ScheduleCache, StoreOverAScoredKeyDropsTheKeptScore) {
  // Lookups keep the score of their first hit; a store over the key must
  // not leave the old schedule's score behind.
  const auto derived = fig1_graph();
  const auto key = key_for(derived.graph, 2);
  const auto two = evaluate(derived.graph, 2);
  const auto one = evaluate(derived.graph, 1);  // infeasible: 250 ms of work in 200
  ASSERT_TRUE(two.feasible);
  ASSERT_FALSE(one.feasible);
  ASSERT_NE(one.makespan, two.makespan);

  sched::ScheduleCache cache;
  cache.store(key, two);
  const auto first = cache.lookup(key, derived.graph);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->makespan, two.makespan);
  EXPECT_TRUE(first->feasible);

  cache.store(key, one);
  const auto second = cache.lookup(key, derived.graph);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->makespan, one.makespan);
  EXPECT_EQ(second->feasible, one.feasible);
  EXPECT_EQ(second->deadline_violations, one.deadline_violations);
  // The kept score is now the replacement's: a later hit answers from it.
  const auto third = cache.lookup(key, derived.graph);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->makespan, one.makespan);
  EXPECT_FALSE(third->feasible);
}

TEST(ScheduleCache, DiskPromotedEntryIsScoredAgainstTheQueryGraph) {
  // Disk entries carry no score: promotion scores the schedule against
  // the graph of the query that promotes it. Doubling every WCET keeps
  // the job count but makes the stored placements overlap.
  const TempDir dir("promote_score");
  const auto app = apps::build_fig1();
  const auto derived = fig1_graph();
  WcetMap doubled = app.fig3_wcets();
  for (auto& entry : doubled) {
    entry.second = entry.second + entry.second;
  }
  const auto slower = derive_task_graph(app.net, doubled);
  ASSERT_EQ(slower.graph.job_count(), derived.graph.job_count());

  const auto key = key_for(derived.graph, 2);
  const auto stored = evaluate(derived.graph, 2);
  {
    sched::ScheduleCache writer(dir.path());
    writer.store(key, stored);
  }
  sched::StrategyResult expected;
  expected.schedule = stored.schedule;
  sched::finalize_result(slower.graph, expected);
  ASSERT_NE(expected.makespan, stored.makespan);

  sched::ScheduleCache reader(dir.path());
  const auto hit = reader.lookup(key, slower.graph);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->makespan, expected.makespan);
  EXPECT_EQ(hit->feasible, expected.feasible);
  EXPECT_EQ(hit->deadline_violations, expected.deadline_violations);
  EXPECT_EQ(reader.size(), 1u);  // promoted
}

TEST(ScheduleCache, ConcurrentSameKeyStoresNeverTearEntries) {
  // Writers use unique temp files + atomic rename, so racing stores of
  // one key must all succeed and leave a complete, parseable entry.
  const TempDir dir("race");
  const auto derived = fig1_graph();
  const auto key = key_for(derived.graph, 2);
  const auto result = evaluate(derived.graph, 2);
  sched::ScheduleCache cache(dir.path());

  std::vector<std::thread> writers;
  for (int w = 0; w < 8; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        cache.store(key, result);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }

  sched::ScheduleCache reader(dir.path());
  const auto hit = reader.lookup(key, derived.graph);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->makespan, result.makespan);
  EXPECT_EQ(reader.stats().disk_rejects, 0u);
  // No leftover temp files after the last rename.
  std::size_t stray_tmp = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    if (e.path().string().find(".tmp") != std::string::npos) {
      ++stray_tmp;
    }
  }
  EXPECT_EQ(stray_tmp, 0u);
}

TEST(ScheduleCache, BadDirectoryFailsLoudly) {
  EXPECT_THROW((void)sched::ScheduleCache("/nonexistent-parent-xyz/cache"),
               std::runtime_error);
  const TempDir dir("notadir");
  const std::string file_path = (fs::path(dir.path()) / "a_file").string();
  std::ofstream(file_path) << "x";
  EXPECT_THROW((void)sched::ScheduleCache{file_path}, std::runtime_error);
}

TEST(ScheduleCache, CreatesLeafDirectory) {
  const TempDir dir("leaf");
  const std::string leaf = (fs::path(dir.path()) / "sub").string();
  sched::ScheduleCache cache(leaf);
  EXPECT_TRUE(fs::is_directory(leaf));
  EXPECT_EQ(cache.directory(), leaf);
}

TEST(ScheduleFormat, RejectsLeadingPlusInSignedFields) {
  // The documented grammar for signed integers is -?[0-9]+: a leading '+'
  // (which raw stoll tolerates) is a parse error in every schedule-entry
  // field, same as parse_u64's long-standing sign check.
  const auto derived = fig1_graph();
  io::ScheduleEntry entry;
  entry.strategy = "alap-edf";
  entry.seed = 0;
  entry.processors = 2;
  entry.max_iterations = 0;
  entry.restarts = 0;
  entry.schedule = evaluate(derived.graph, 2).schedule;
  const std::string text = io::write_schedule_entry(entry);

  const auto with = [&](const std::string& from, const std::string& to) {
    std::string mutated = text;
    mutated.replace(mutated.find(from), from.size(), to);
    return mutated;
  };
  EXPECT_THROW((void)io::read_schedule_entry_string(with("processors 2", "processors +2")),
               io::ParseError);
  EXPECT_THROW((void)io::read_schedule_entry_string(with("budget 0 0", "budget +0 0")),
               io::ParseError);
  EXPECT_THROW((void)io::read_schedule_entry_string(with("seed 0", "seed +0")),
               io::ParseError);
  EXPECT_THROW((void)io::read_schedule_entry_string(with("jobs 10", "jobs +10")),
               io::ParseError);
  EXPECT_THROW((void)io::read_schedule_entry_string(with("place 0", "place +0")),
               io::ParseError);
}

TEST(ScheduleFormat, RejectsBudgetOutsideInt) {
  // A budget that wraps through int could satisfy the wrong query
  // (4294969296 = 2^32 + 2000 would read as 2000).
  const auto derived = fig1_graph();
  io::ScheduleEntry entry;
  entry.strategy = "alap-edf";
  entry.processors = 2;
  entry.max_iterations = 2000;
  entry.restarts = 2;
  entry.schedule = evaluate(derived.graph, 2).schedule;
  const std::string text = io::write_schedule_entry(entry);

  const auto with = [&](const std::string& budget) {
    std::string mutated = text;
    mutated.replace(mutated.find("budget 2000 2"), 13, budget);
    return mutated;
  };
  EXPECT_THROW((void)io::read_schedule_entry_string(with("budget 4294969296 2")),
               io::ParseError);
  EXPECT_THROW((void)io::read_schedule_entry_string(with("budget 2000 4294967298")),
               io::ParseError);
  EXPECT_THROW((void)io::read_schedule_entry_string(with("budget -2147483649 2")),
               io::ParseError);
  const io::ScheduleEntry edge =
      io::read_schedule_entry_string(with("budget 2147483647 -2147483648"));
  EXPECT_EQ(edge.max_iterations, std::numeric_limits<int>::max());
  EXPECT_EQ(edge.restarts, std::numeric_limits<int>::min());
}

TEST(ScheduleFormat, ExpectedJobCountIsCheckedBeforeSizing) {
  const auto derived = fig1_graph();
  io::ScheduleEntry entry;
  entry.strategy = "alap-edf";
  entry.processors = 2;
  entry.schedule = evaluate(derived.graph, 2).schedule;
  const std::string text = io::write_schedule_entry(entry);
  const std::size_t jobs = derived.graph.job_count();

  EXPECT_EQ(io::read_schedule_entry_string(text, jobs).schedule.job_count(), jobs);
  EXPECT_THROW((void)io::read_schedule_entry_string(text, jobs + 1), io::ParseError);
  // A count no allocation could satisfy fails as a ParseError, not
  // std::bad_alloc.
  std::string huge = text;
  const std::string line = "jobs " + std::to_string(jobs);
  huge.replace(huge.find(line), line.size(), "jobs 100000000000000");
  EXPECT_THROW((void)io::read_schedule_entry_string(huge, jobs), io::ParseError);
}

TEST(ScheduleCache, HugeJobCountOnDiskIsARejectNotAnError) {
  // A corrupt "jobs" count must not size anything: every lookup that
  // reads the entry counts it in disk_rejects and treats it as a miss (a
  // rejected entry is never promoted into memory).
  const TempDir dir("hugejobs");
  const auto derived = fig1_graph();
  const auto key = key_for(derived.graph, 2);
  {
    sched::ScheduleCache cache(dir.path());
    cache.store(key, evaluate(derived.graph, 2));
  }
  const fs::path path = fs::path(dir.path()) / key.filename();
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::string line = "jobs " + std::to_string(derived.graph.job_count());
  ASSERT_NE(text.find(line), std::string::npos);
  text.replace(text.find(line), line.size(), "jobs 100000000000000");
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  sched::ScheduleCache cache(dir.path());
  EXPECT_FALSE(cache.lookup(key, derived.graph).has_value());
  EXPECT_EQ(cache.stats().disk_rejects, 1u);
  EXPECT_FALSE(cache.lookup(key, derived.graph).has_value());
  EXPECT_EQ(cache.stats().disk_rejects, 2u);
}

/// Entry file names (no temp files) currently in `dir`.
std::vector<std::string> entry_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() > 6 && name.compare(name.size() - 6, 6, ".sched") == 0) {
      files.push_back(name);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

sched::CacheKey seeded_key(const sched::CacheKey& base, std::uint64_t seed) {
  sched::CacheKey key = base;
  key.seed = seed;
  return key;
}

TEST(ScheduleCache, EvictionKeepsTheNewestEntries) {
  const TempDir dir("evict");
  const auto derived = fig1_graph();
  const auto result = evaluate(derived.graph, 2);
  const auto base = key_for(derived.graph, 2);

  sched::ScheduleCache cache(dir.path(), 3);
  EXPECT_EQ(cache.max_entries(), 3u);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cache.store(seeded_key(base, seed), result);
  }
  const std::vector<std::string> files = entry_files(dir.path());
  ASSERT_EQ(files.size(), 3u);
  // Oldest two (seeds 1, 2) evicted; newest three kept.
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    EXPECT_NE(std::find(files.begin(), files.end(),
                        seeded_key(base, seed).filename()),
              files.end())
        << "seed " << seed;
  }
  EXPECT_EQ(cache.stats().evictions, 2u);
  // The evicted entries are disk misses for a fresh process; the kept
  // ones still hit.
  sched::ScheduleCache reader(dir.path(), 3);
  EXPECT_FALSE(reader.lookup(seeded_key(base, 1), derived.graph).has_value());
  EXPECT_TRUE(reader.lookup(seeded_key(base, 5), derived.graph).has_value());
}

/// Size in bytes of one entry file for `result` under `key`, measured by
/// storing it into a throwaway unbounded cache.
std::uintmax_t entry_file_size(const sched::CacheKey& key,
                               const sched::StrategyResult& result) {
  const TempDir probe("probesize");
  sched::ScheduleCache cache(probe.path());
  cache.store(key, result);
  return fs::file_size(fs::path(probe.path()) / key.filename());
}

TEST(ScheduleCache, ByteBoundEvictsOldestFirst) {
  const auto derived = fig1_graph();
  const auto result = evaluate(derived.graph, 2);
  const auto base = key_for(derived.graph, 2);
  // Single-digit seeds keep every entry file the same size.
  const std::uintmax_t entry_size = entry_file_size(seeded_key(base, 1), result);

  const TempDir dir("bytebound");
  // Room for two entries but not three.
  sched::ScheduleCache cache(dir.path(), 0, 2 * entry_size + entry_size / 2);
  EXPECT_EQ(cache.max_entries(), 0u);
  EXPECT_EQ(cache.max_bytes(), 2 * entry_size + entry_size / 2);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cache.store(seeded_key(base, seed), result);
  }
  const std::vector<std::string> files = entry_files(dir.path());
  ASSERT_EQ(files.size(), 2u);
  for (const std::uint64_t seed : {3u, 4u}) {
    EXPECT_NE(std::find(files.begin(), files.end(),
                        seeded_key(base, seed).filename()),
              files.end())
        << "seed " << seed;
  }
  EXPECT_EQ(cache.stats().evictions, 2u);
  // Evicted entries are disk misses for a fresh process; kept ones hit.
  sched::ScheduleCache reader(dir.path(), 0, 2 * entry_size + entry_size / 2);
  EXPECT_FALSE(reader.lookup(seeded_key(base, 1), derived.graph).has_value());
  EXPECT_TRUE(reader.lookup(seeded_key(base, 4), derived.graph).has_value());
}

TEST(ScheduleCache, ByteBoundSmallerThanOneEntryEmptiesTheDirectory) {
  // The bound is a hard cap, not advisory: an entry bigger than the whole
  // budget is evicted right after its own store.
  const TempDir dir("tinybytes");
  const auto derived = fig1_graph();
  const auto base = key_for(derived.graph, 2);
  sched::ScheduleCache cache(dir.path(), 0, 1);
  cache.store(seeded_key(base, 1), evaluate(derived.graph, 2));
  EXPECT_TRUE(entry_files(dir.path()).empty());
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The memory tier is not evicted — the in-process memo still answers.
  EXPECT_TRUE(cache.lookup(seeded_key(base, 1), derived.graph).has_value());
}

TEST(ScheduleCache, EntryAndByteBoundsCombine) {
  // Whichever bound is tighter wins. Entry bound 3 but byte budget for 2:
  // two survive. Both bounds honored on every store.
  const auto derived = fig1_graph();
  const auto result = evaluate(derived.graph, 2);
  const auto base = key_for(derived.graph, 2);
  const std::uintmax_t entry_size = entry_file_size(seeded_key(base, 1), result);

  const TempDir dir("bothbounds");
  sched::ScheduleCache cache(dir.path(), 3, 2 * entry_size + entry_size / 2);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cache.store(seeded_key(base, seed), result);
  }
  EXPECT_EQ(entry_files(dir.path()).size(), 2u);
}

TEST(ScheduleCache, GcHonorsByteBound) {
  // Entries written by an unbounded writer are evicted down to the byte
  // budget by a later gc() — the `fppn_tool cache-gc --cache-max-bytes B`
  // path.
  const auto derived = fig1_graph();
  const auto result = evaluate(derived.graph, 2);
  const auto base = key_for(derived.graph, 2);
  const std::uintmax_t entry_size = entry_file_size(seeded_key(base, 1), result);

  const TempDir dir("gcbytes");
  {
    sched::ScheduleCache writer(dir.path());
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      writer.store(seeded_key(base, seed), result);
    }
  }
  ASSERT_EQ(entry_files(dir.path()).size(), 4u);

  sched::ScheduleCache bounded(dir.path(), 0, 2 * entry_size + entry_size / 2);
  const sched::CacheGcStats gc = bounded.gc();
  EXPECT_EQ(gc.kept, 2u);
  EXPECT_EQ(gc.evicted, 2u);
  EXPECT_EQ(entry_files(dir.path()).size(), 2u);
}

TEST(ScheduleCache, DiskHitRefreshesRecency) {
  // LRU, not FIFO: reading an old entry from disk must protect it from
  // the next eviction round.
  const TempDir dir("lru");
  const auto derived = fig1_graph();
  const auto result = evaluate(derived.graph, 2);
  const auto base = key_for(derived.graph, 2);
  {
    sched::ScheduleCache writer(dir.path(), 2);
    writer.store(seeded_key(base, 1), result);
    writer.store(seeded_key(base, 2), result);
  }
  sched::ScheduleCache cache(dir.path(), 2);
  ASSERT_TRUE(cache.lookup(seeded_key(base, 1), derived.graph).has_value());
  cache.store(seeded_key(base, 3), result);  // bound 2: evicts seed 2, not seed 1
  const std::vector<std::string> files = entry_files(dir.path());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(std::find(files.begin(), files.end(), seeded_key(base, 1).filename()),
            files.end());
  EXPECT_NE(std::find(files.begin(), files.end(), seeded_key(base, 3).filename()),
            files.end());
}

TEST(ScheduleCache, GcBoundsAPrepopulatedDirectoryByModificationTime) {
  // A directory filled by an unbounded writer (or shared from another
  // machine) must gc cleanly: the entry files' modification times order
  // the eviction down to the bound. Seeds are stored in descending order,
  // so name order would keep the wrong two.
  const TempDir dir("prepopulated");
  const auto derived = fig1_graph();
  const auto base = key_for(derived.graph, 2);
  {
    sched::ScheduleCache writer(dir.path());
    for (std::uint64_t seed = 4; seed >= 1; --seed) {
      writer.store(seeded_key(base, seed), evaluate(derived.graph, 2));
    }
  }
  sched::ScheduleCache cache(dir.path(), 2);
  const sched::CacheGcStats gc = cache.gc();
  EXPECT_EQ(gc.kept, 2u);
  EXPECT_EQ(gc.evicted, 2u);
  EXPECT_EQ(entry_files(dir.path()),
            (std::vector<std::string>{seeded_key(base, 1).filename(),
                                      seeded_key(base, 2).filename()}));
}

TEST(ScheduleCache, NonEntryFilesAreIgnored) {
  // Only "*.sched" files are entries. A recency ledger left by an older
  // version ("cache-index") or any other file is neither counted nor
  // evicted, and is not an error for lookup, store or gc().
  const TempDir dir("foreign");
  const auto derived = fig1_graph();
  const auto result = evaluate(derived.graph, 2);
  const auto base = key_for(derived.graph, 2);
  const std::vector<std::string> foreign = {"cache-index", "notes.txt",
                                            "seed1.sched.tmp.1.0"};
  for (const std::string& name : foreign) {
    std::ofstream out(fs::path(dir.path()) / name);
    out << "fppn-cache-index v1\nsequence 9\nentries 1\n1 gone.sched\nend\n";
  }
  sched::ScheduleCache cache(dir.path(), 2);
  EXPECT_EQ(cache.gc().kept, 0u);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    cache.store(seeded_key(base, seed), result);
  }
  EXPECT_EQ(entry_files(dir.path()).size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  sched::ScheduleCache reader(dir.path(), 2);
  EXPECT_TRUE(reader.lookup(seeded_key(base, 3), derived.graph).has_value());
  EXPECT_EQ(reader.stats().disk_rejects, 0u);
  // A byte bound below one entry empties the directory of entries only.
  sched::ScheduleCache tiny(dir.path(), 0, 1);
  const sched::CacheGcStats gc = tiny.gc();
  EXPECT_EQ(gc.kept, 0u);
  EXPECT_EQ(gc.evicted, 2u);
  EXPECT_EQ(gc.evict_failures, 0u);
  EXPECT_TRUE(entry_files(dir.path()).empty());
  for (const std::string& name : foreign) {
    EXPECT_TRUE(fs::exists(fs::path(dir.path()) / name)) << name;
  }
}

TEST(ScheduleCache, EvictionAcrossRacingInstancesHoldsTheBound) {
  // Several cache instances (standing in for separate processes) race
  // stores of distinct keys into one bounded directory. The eviction
  // pass inside every store lists the whole directory, so it — and a
  // final gc — must still hold the directory at the bound, with
  // every surviving entry complete and parseable.
  const TempDir dir("race_evict");
  const auto derived = fig1_graph();
  const auto result = evaluate(derived.graph, 2);
  const auto base = key_for(derived.graph, 2);
  constexpr std::size_t kBound = 5;

  sched::ScheduleCache a(dir.path(), kBound);
  sched::ScheduleCache b(dir.path(), kBound);
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      sched::ScheduleCache& cache = (w % 2 == 0) ? a : b;
      for (std::uint64_t i = 0; i < 10; ++i) {
        cache.store(seeded_key(base, static_cast<std::uint64_t>(w) * 100 + i), result);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }

  sched::ScheduleCache settle(dir.path(), kBound);
  (void)settle.gc();
  const std::vector<std::string> files = entry_files(dir.path());
  EXPECT_LE(files.size(), kBound);
  for (const std::string& file : files) {
    std::ifstream in(fs::path(dir.path()) / file);
    EXPECT_NO_THROW((void)io::read_schedule_entry(in)) << file;
  }
  // The cache keeps working after the race: a fresh store lands and is
  // the newest entry.
  settle.store(seeded_key(base, 999), result);
  EXPECT_LE(entry_files(dir.path()).size(), kBound);
  sched::ScheduleCache reader(dir.path(), kBound);
  EXPECT_TRUE(reader.lookup(seeded_key(base, 999), derived.graph).has_value());
}

}  // namespace
}  // namespace fppn
