// How fast the host runs at the moment, measured with a fixed reference
// kernel that does not use the library.
//
// On a shared host the speed of the same code drifts by a third and more
// over minutes, and each CPU drifts on its own (see perfbench/README.md,
// "Noise"). The end-to-end run therefore measures in short slices, runs
// the reference kernel on the slice's CPUs just before each slice, and
// scales the slice's times to the speed at which the kernel takes
// kReferenceMs. The host also stops the CPUs outright now and then
// (steal, counted in /proc/stat); the slice's wall times drop the share
// of its CPUs' running time that was stolen. A change to the library
// moves the scaled times exactly as it moves the raw ones: the kernel
// runs while the workload is idle and shares no code with it.
#pragma once

#include <vector>

namespace perfbench {

/// The time of one reference-kernel rep that the scaled times refer to.
constexpr double kReferenceMs = 1.0;

/// The CPUs this process may run on, in increasing order.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Restricts the calling thread to `cpus` (threads it starts later
/// inherit the set).
void run_on(const std::vector<int>& cpus);

/// Busy and stolen time per CPU since boot, from /proc/stat, in ticks.
/// Steal is time a CPU had work but the hypervisor ran something else:
/// a thread on that CPU stood still for it.
struct CpuTimes {
  std::vector<double> busy;   ///< user + nice + system + irq + softirq
  std::vector<double> steal;  ///< indexed by CPU number, like busy
};

/// The current CpuTimes; empty where /proc/stat cannot be read.
[[nodiscard]] CpuTimes cpu_times();

/// The share of the running time (busy or stolen) of `cpus` between
/// `before` and `after` that was stolen, averaged over the CPUs weighted
/// by their busy time; 0 where nothing was recorded.
[[nodiscard]] double stolen_share(const CpuTimes& before, const CpuTimes& after,
                                  const std::vector<int>& cpus);

/// The median time of the reference kernel over a burst of reps, run at
/// once on one thread pinned to each of `cpus`.
[[nodiscard]] double reference_ms(const std::vector<int>& cpus);

}  // namespace perfbench
