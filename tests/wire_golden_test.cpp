// Byte goldens of what the serving path writes: one full `fppn-serve ok`
// response, the `.sched` file the disk cache stores for it (name and
// bytes), and cache entries with fractional starts, unplaced jobs and
// extreme integers. Every literal was recorded from the iostream-based
// writer the current one replaced; a client or a deployed cache directory
// reads these bytes, so none may change. Each entry also round-trips
// through read_schedule_entry_string.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "io/schedule_format.hpp"

#ifndef FPPN_TEST_SOURCE_DIR
#error "FPPN_TEST_SOURCE_DIR must point at the tests/ source directory"
#endif

namespace fppn {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fig1_text() {
  return slurp(fs::path(FPPN_TEST_SOURCE_DIR) / ".." / "examples" / "fig1.fppn");
}

engine::ServiceOptions quick_options() {
  engine::ServiceOptions options;
  options.processors = 2;
  options.seed = 1;
  options.search_workers = 1;
  return options;
}

/// The winner's entry for fig1, quick preset, 2 processors, seed 1.
const std::string kFig1Entry =
    "fppn-schedule v1\n"
    "fingerprint e11dfad27166df06\n"
    "strategy alap-edf\n"
    "seed 1\n"
    "processors 2\n"
    "budget 400 1\n"
    "detail list schedule, SP heuristic alap-edf\n"
    "jobs 10\n"
    "place 0 1 0\n"
    "place 1 1 25\n"
    "place 2 1 50\n"
    "place 3 1 75\n"
    "place 4 0 0\n"
    "place 5 0 25\n"
    "place 6 0 50\n"
    "place 7 0 75\n"
    "place 8 0 100\n"
    "place 9 0 125\n"
    "end\n";

const std::string kFig1ColdStatus =
    "fppn-serve ok fingerprint e11dfad27166df06 candidates 6 evaluated 6 cached 0 "
    "winner alap-edf seed 1 feasible 1\n";
const std::string kFig1HotStatus =
    "fppn-serve ok fingerprint e11dfad27166df06 candidates 6 evaluated 0 cached 6 "
    "winner alap-edf seed 1 feasible 1\n";

TEST(WireGolden, Fig1ResponseColdThenHot) {
  engine::Engine engine;
  engine::SolveService service(engine, quick_options());
  const std::string text = fig1_text();
  EXPECT_EQ(service.handle(text, 0.0), kFig1ColdStatus + kFig1Entry);
  EXPECT_EQ(service.handle(text, 0.0), kFig1HotStatus + kFig1Entry);
}

TEST(WireGolden, Fig1DiskCacheEntryFile) {
  const fs::path dir =
      fs::temp_directory_path() / ("fppn_wire_golden_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    engine::Engine engine;
    engine::ServiceOptions options = quick_options();
    options.cache_dir = dir.string();
    engine::SolveService service(engine, options);
    EXPECT_EQ(service.handle(fig1_text(), 0.0), kFig1ColdStatus + kFig1Entry);
  }
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  const std::vector<std::string> expected = {
      "e11dfad27166df06-alap-edf-m2-seed1-it400-r1.sched",
      "e11dfad27166df06-arrival-order-m2-seed1-it400-r1.sched",
      "e11dfad27166df06-b-level-m2-seed1-it400-r1.sched",
      "e11dfad27166df06-deadline-monotonic-m2-seed1-it400-r1.sched",
      "e11dfad27166df06-local-search-m2-seed1-it400-r1.sched",
      "e11dfad27166df06-partitioned-wfd-m2-seed1-it400-r1.sched",
  };
  EXPECT_EQ(names, expected);
  EXPECT_EQ(slurp(dir / expected[0]), kFig1Entry);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// write(entry) is `golden`, and reading `golden` back writes it again.
void expect_entry_bytes(const io::ScheduleEntry& entry, const std::string& golden) {
  EXPECT_EQ(io::write_schedule_entry(entry), golden);
  std::string appended = "prefix\n";
  io::append_schedule_entry(appended, entry);
  EXPECT_EQ(appended, "prefix\n" + golden);
  const io::ScheduleEntry back = io::read_schedule_entry_string(golden);
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
    ASSERT_EQ(back.schedule.is_placed(id), entry.schedule.is_placed(id)) << i;
    if (entry.schedule.is_placed(id)) {
      EXPECT_EQ(back.schedule.placement(id).processor,
                entry.schedule.placement(id).processor);
      EXPECT_EQ(back.schedule.placement(id).start, entry.schedule.placement(id).start);
    }
  }
  EXPECT_EQ(io::write_schedule_entry(back), golden);
}

TEST(WireGolden, FractionalStarts) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  io::ScheduleEntry entry;
  entry.fingerprint = 0x0123456789abcdefULL;
  entry.strategy = "b-level";
  entry.seed = 7;
  entry.processors = 3;
  entry.max_iterations = 40;
  entry.restarts = 2;
  entry.detail = "fractional starts";
  entry.schedule = StaticSchedule(4, 3);
  entry.schedule.place(JobId(0), ProcessorId(0), Time());
  entry.schedule.place(JobId(1), ProcessorId(1), Time() + Duration(Rational(40, 3)));
  entry.schedule.place(JobId(2), ProcessorId(2), Time() + Duration(Rational(-7, 2)));
  entry.schedule.place(JobId(3), ProcessorId(0),
                       Time() + Duration(Rational(kMax, kMax - 1)));
  expect_entry_bytes(entry,
                     "fppn-schedule v1\n"
                     "fingerprint 0123456789abcdef\n"
                     "strategy b-level\n"
                     "seed 7\n"
                     "processors 3\n"
                     "budget 40 2\n"
                     "detail fractional starts\n"
                     "jobs 4\n"
                     "place 0 0 0\n"
                     "place 1 1 40/3\n"
                     "place 2 2 -7/2\n"
                     "place 3 0 9223372036854775807/9223372036854775806\n"
                     "end\n");
}

TEST(WireGolden, PartialSchedule) {
  io::ScheduleEntry entry;
  entry.fingerprint = 0xfedcba9876543210ULL;
  entry.strategy = "local-search";
  entry.seed = 3;
  entry.processors = 2;
  entry.max_iterations = 200;
  entry.restarts = 4;
  entry.schedule = StaticSchedule(5, 2);
  entry.schedule.place(JobId(1), ProcessorId(1), Time::ms(25));
  entry.schedule.place(JobId(3), ProcessorId(0), Time::ms(100));
  expect_entry_bytes(entry,
                     "fppn-schedule v1\n"
                     "fingerprint fedcba9876543210\n"
                     "strategy local-search\n"
                     "seed 3\n"
                     "processors 2\n"
                     "budget 200 4\n"
                     "detail \n"
                     "jobs 5\n"
                     "place 1 1 25\n"
                     "place 3 0 100\n"
                     "end\n");
}

TEST(WireGolden, LargestSeedAndExtremeIntegers) {
  io::ScheduleEntry entry;
  entry.fingerprint = 0;
  entry.strategy = "alap-edf";
  entry.seed = std::numeric_limits<std::uint64_t>::max();
  entry.processors = 4;
  entry.max_iterations = std::numeric_limits<int>::max();
  entry.restarts = std::numeric_limits<int>::min();
  entry.detail = "seed 2^64-1 with a long detail line: score 12 violations 0";
  entry.schedule = StaticSchedule(1, 4);
  entry.schedule.place(
      JobId(0), ProcessorId(0),
      Time() + Duration(Rational(std::numeric_limits<std::int64_t>::min() + 1)));
  expect_entry_bytes(entry,
                     "fppn-schedule v1\n"
                     "fingerprint 0000000000000000\n"
                     "strategy alap-edf\n"
                     "seed 18446744073709551615\n"
                     "processors 4\n"
                     "budget 2147483647 -2147483648\n"
                     "detail seed 2^64-1 with a long detail line: score 12 violations 0\n"
                     "jobs 1\n"
                     "place 0 0 -9223372036854775807\n"
                     "end\n");
}

}  // namespace
}  // namespace fppn
