// The benchmark's four workloads over the FPPN chain (network -> task
// graph -> static schedule -> deterministic runtime), each driven
// in-process through the library's public APIs. See perfbench/README.md
// for why each workload exists and what each metric means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for sockets and trace files (created by the caller).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines (thread counts, sample counts, files written)
  /// printed before the result line.
  std::vector<std::string> info;
};

/// Runs one workload: set-up, the timed closed loop, the correctness
/// checks. With opts.trace the run is the traced one and the metrics are
/// the per-layer ones. Throws on a set-up failure (bad inputs, an
/// infeasible reference schedule, a socket that cannot be bound).
[[nodiscard]] Result run_workload(const Options& opts);

}  // namespace perfbench
