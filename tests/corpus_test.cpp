// The checked-in seed corpus (tests/corpus/*.fppn): one generated
// scenario per family, committed in the repro wire format. Replaying it
// pins two contracts at once — the differential checks stay clean on
// known-good inputs, and the text format keeps parsing scenarios written
// by earlier versions of the generator (format drift breaks this test,
// not a user's saved repro). tests/corpus/regressions/ holds shrunk
// repros of mismatches that were fixed: each names the check it once
// tripped and must now replay clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "gen/fuzz.hpp"

#ifndef FPPN_TEST_SOURCE_DIR
#error "FPPN_TEST_SOURCE_DIR must point at the tests/ source directory"
#endif

namespace fppn::gen {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> corpus_files(const std::string& subdir = "corpus") {
  std::vector<std::string> files;
  const fs::path dir = fs::path(FPPN_TEST_SOURCE_DIR) / subdir;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".fppn") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(Corpus, CoversEveryFamily) {
  std::set<std::string> stems;
  for (const std::string& file : corpus_files()) {
    const std::string stem = fs::path(file).stem().string();
    stems.insert(stem.substr(0, stem.rfind('-')));
  }
  for (const Family family : all_families()) {
    EXPECT_TRUE(stems.count(to_string(family)))
        << "no corpus entry for family " << to_string(family);
  }
}

TEST(Corpus, EveryEntryReplaysClean) {
  FuzzConfig cfg;
  cfg.max_iterations = 60;
  cfg.restarts = 1;
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    const ReplayOutcome outcome = replay_repro(file, cfg);
    EXPECT_TRUE(outcome.expected_check.empty()) << file;
    EXPECT_FALSE(outcome.verdict.mismatch.has_value())
        << file << ": " << outcome.verdict.mismatch->check << " — "
        << outcome.verdict.mismatch->detail;
    EXPECT_GT(outcome.verdict.jobs, 0u) << file;
  }
}

TEST(Corpus, FixedReprosReplayClean) {
  const std::vector<std::string> files = corpus_files("corpus/regressions");
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    const ReplayOutcome outcome = replay_repro(file, FuzzConfig{});
    EXPECT_FALSE(outcome.expected_check.empty()) << file;
    EXPECT_FALSE(outcome.verdict.mismatch.has_value())
        << file << ": " << outcome.verdict.mismatch->check << " — "
        << outcome.verdict.mismatch->detail;
    EXPECT_TRUE(outcome.verdict.trace_checked) << file;
  }
}

}  // namespace
}  // namespace fppn::gen
