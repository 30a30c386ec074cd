#include "sched/partitioned.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace fppn {

std::vector<ProcessorId> wfd_assignment(const TaskGraph& tg,
                                        std::size_t process_count,
                                        std::int64_t processors) {
  std::vector<ProcessorId> assignment(process_count, ProcessorId());
  if (processors < 1) {
    throw std::invalid_argument("partitioning needs at least one processor");
  }

  // Per-process demand: sum of job WCETs (relative to one frame).
  std::vector<Duration> demand(process_count);
  std::vector<std::uint8_t> has_jobs(process_count, 0);
  for (const Job& j : tg.jobs()) {
    if (j.process.value() >= process_count) {
      throw std::invalid_argument("partitioning: job process id out of range");
    }
    demand[j.process.value()] += j.wcet;
    has_jobs[j.process.value()] = 1;
  }
  // Worst-fit decreasing on demand (balances the bins).
  std::vector<std::size_t> order(process_count);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (demand[a] != demand[b]) {
      return demand[a] > demand[b];
    }
    return a < b;
  });
  std::vector<Duration> bin(static_cast<std::size_t>(processors));
  for (const std::size_t p : order) {
    if (has_jobs[p] == 0) {
      continue;  // process with no jobs in this frame
    }
    std::size_t lightest = 0;
    for (std::size_t m = 1; m < bin.size(); ++m) {
      if (bin[m] < bin[lightest]) {
        lightest = m;
      }
    }
    assignment[p] = ProcessorId(lightest);
    bin[lightest] += demand[p];
  }
  return assignment;
}

}  // namespace fppn
