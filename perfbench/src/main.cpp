// perfbench — runs one benchmark workload and prints its result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--commit ID]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it describe
// the host, the pinned thread counts and the sample counts.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--commit ID]\n",
               problem.c_str());
  std::exit(2);
}

/// Numbers are printed with every significant digit a double holds.
std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_work_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        opts.trace = value == "1";
      } else if (flag == "--work-dir") {
        opts.work_dir = value;
        have_work_dir = true;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_work_dir) {
    usage("--workload and --work-dir are required");
  }
  if (!(opts.seconds > 0.0)) {
    usage("--seconds must be positive");
  }

  perfbench::Result result;
  try {
    result = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }

  std::printf("host: nproc %u compiler \"%s\" build %s commit %s\n",
              std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
              commit.c_str());
  std::printf("run: workload %s seed %" PRIu64 " seconds %s trace %d\n",
              opts.workload.c_str(), opts.seed, number(opts.seconds).c_str(),
              opts.trace ? 1 : 0);
  for (const std::string& line : result.info) {
    std::printf("%s\n", line.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
