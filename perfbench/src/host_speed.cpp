#include "host_speed.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {
namespace {

/// Reps per CPU in one burst: about 13 ms of kernel on this benchmark's
/// reference host, little beside a slice of a quarter second.
constexpr std::size_t kBurstReps = 15;

std::atomic<std::uint64_t> g_sink{0};

/// One rep of the reference kernel: ordered-map inserts and lookups,
/// small allocations, integer gcds, a sort, and number formatting and
/// parsing — roughly the mix of the library's own work. Its inputs are
/// fixed, so every rep does the same work.
double kernel_rep_ms() {
  const auto begin = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < 1500; ++i) {
    map.emplace(next() % 65536, next());
  }
  std::uint64_t acc = 0;
  for (int i = 0; i < 1500; ++i) {
    const auto it = map.lower_bound(next() % 65536);
    if (it != map.end()) {
      acc += std::gcd(it->first + 1, it->second % 1000003 + 1);
    }
  }
  std::vector<std::vector<std::int64_t>> blocks;
  for (int i = 0; i < 600; ++i) {
    blocks.emplace_back(static_cast<std::size_t>(next() % 24 + 1), static_cast<std::int64_t>(i));
  }
  std::vector<std::uint64_t> values(3000);
  for (std::uint64_t& v : values) {
    v = next();
  }
  std::sort(values.begin(), values.end());
  std::string text;
  for (std::size_t i = 0; i < values.size(); i += 4) {
    text += std::to_string(values[i] % 100000) + ' ';
  }
  for (const char* c = text.c_str(); *c != '\0';) {
    char* end = nullptr;
    acc += std::strtoull(c, &end, 10);
    c = *end == ' ' ? end + 1 : end;
  }
  acc += blocks.back().size() + values[values.size() / 2];
  g_sink.fetch_add(acc, std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - begin)
      .count();
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}

void run_on(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

CpuTimes cpu_times() {
  CpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    // "cpuN user nice system idle iowait irq softirq steal ..."
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] < '0' || line[3] > '9') {
      continue;
    }
    std::istringstream fields(line.substr(3));
    std::size_t cpu = 0;
    double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
    if (!(fields >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal)) {
      continue;
    }
    if (cpu >= times.busy.size()) {
      times.busy.resize(cpu + 1, 0.0);
      times.steal.resize(cpu + 1, 0.0);
    }
    times.busy[cpu] = user + nice + system + irq + softirq;
    times.steal[cpu] = steal;
  }
  return times;
}

double stolen_share(const CpuTimes& before, const CpuTimes& after,
                    const std::vector<int>& cpus) {
  // Each CPU's stolen share, weighted by its busy time: a CPU that mostly
  // sleeps is stolen mainly as it wakes, and carries little of the work.
  double busy_total = 0.0;
  double weighted = 0.0;
  for (const int cpu : cpus) {
    const auto c = static_cast<std::size_t>(cpu);
    if (c >= before.busy.size() || c >= after.busy.size()) {
      continue;
    }
    const double busy = after.busy[c] - before.busy[c];
    const double steal = after.steal[c] - before.steal[c];
    if (busy + steal > 0.0) {
      busy_total += busy;
      weighted += busy * steal / (busy + steal);
    }
  }
  return busy_total > 0.0 ? weighted / busy_total : 0.0;
}

double reference_ms(const std::vector<int>& cpus) {
  std::vector<double> reps(cpus.size() * kBurstReps);
  std::atomic<bool> pinned{true};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < cpus.size(); ++t) {
    threads.emplace_back([&reps, &cpus, &pinned, t] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus[t], &set);
      if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
        pinned = false;
        return;
      }
      for (std::size_t i = 0; i < kBurstReps; ++i) {
        reps[t * kBurstReps + i] = kernel_rep_ms();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (!pinned) {
    throw std::runtime_error("cannot pin a reference-kernel thread");
  }
  std::nth_element(reps.begin(), reps.begin() + static_cast<std::ptrdiff_t>(reps.size() / 2),
                   reps.end());
  return reps[reps.size() / 2];
}

}  // namespace perfbench
