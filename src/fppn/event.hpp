// Event generators (§II-A) and invocation plans.
//
// Every process is driven by exactly one event generator, characterized by
// a burst size m_e, a period T_e and a relative deadline d_e:
//  - multi-periodic: bursts of m_e invocations at 0, T_e, 2*T_e, ...
//  - sporadic: at most m_e invocations in any half-closed interval of
//    length T_e (the minimal-separation generalization).
// An InvocationPlan is a concrete timed sequence (t_1, P_1), (t_2, P_2) ...
// of simultaneous invocation multisets — the input of the zero-delay
// semantics (§II-B). It is stored flat: one vector of (instant, process)
// slots. sorted_slots() orders a copy once by (instant, process id),
// merging the per-process runs build() emits; each run of equal instants
// in it is one multiset P_i, so a reader walks the runs and builds no
// per-instant container.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "rt/ids.hpp"
#include "rt/time.hpp"

namespace fppn {

enum class EventKind : std::uint8_t { kPeriodic, kSporadic };

[[nodiscard]] std::string to_string(EventKind k);

/// Static attributes of an event generator (m_e, T_e, d_e).
struct EventSpec {
  EventKind kind = EventKind::kPeriodic;
  int burst = 1;        ///< m_e >= 1 invocations per period/window
  Duration period;      ///< T_e > 0
  Duration deadline;    ///< d_e > 0, relative to the invocation instant

  /// Throws std::invalid_argument when any constraint above is violated.
  void validate() const;
};

/// True iff the sorted timestamp sequence satisfies the sporadic
/// constraint: at most `burst` events in any half-closed window of length
/// `period` — equivalently ts[i + burst] - ts[i] >= period for all i.
[[nodiscard]] bool satisfies_sporadic_constraint(const std::vector<Time>& sorted_times,
                                                 int burst, const Duration& period);

/// A concrete sporadic-event script: the timestamps one sporadic process
/// fires at during one execution. Construction validates the (m, T)
/// constraint and sorts the times.
class SporadicScript {
 public:
  SporadicScript() = default;
  SporadicScript(std::vector<Time> times, int burst, const Duration& period);

  [[nodiscard]] const std::vector<Time>& times() const noexcept { return times_; }
  [[nodiscard]] bool empty() const noexcept { return times_.empty(); }

  /// Draws a pseudo-random admissible script on [0, horizon): repeatedly
  /// advances a window anchor by >= period and fires 0..burst events inside
  /// it. Deterministic for a given seed.
  static SporadicScript random(int burst, const Duration& period, Time horizon,
                               std::uint64_t seed);

 private:
  std::vector<Time> times_;
};

/// One invocation: a process fires at a time stamp (bursts repeat entries).
struct Invocation {
  Time time;
  ProcessId process;

  friend bool operator==(const Invocation& a, const Invocation& b) {
    return a.time == b.time && a.process == b.process;
  }
  friend bool operator!=(const Invocation& a, const Invocation& b) {
    return !(a == b);
  }
};

class Network;  // fwd

/// Timed sequence of simultaneous invocation multisets over [0, horizon).
class InvocationPlan {
 public:
  /// Adds `count` invocations of `p` at `t` (t >= 0 required).
  void add(Time t, ProcessId p, int count = 1);

  /// The slots sorted by (time, process id): a run of equal times is the
  /// multiset invoked at that instant, its processes sorted by id and a
  /// burst as repeats. The plan itself is left in add() order. Merges the
  /// plan's already sorted runs, so build()'s one run per process costs
  /// O(N log processes) compares; any add() order comes out sorted.
  [[nodiscard]] std::vector<Invocation> sorted_slots() const;

  [[nodiscard]] std::size_t invocation_count() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }

  /// Builds the plan for `net` on [0, horizon): periodic generators fire
  /// bursts at every multiple of their period; sporadic process p fires at
  /// the times of scripts[p] (missing script = never fires). Script times
  /// >= horizon are ignored.
  static InvocationPlan build(const Network& net, Time horizon,
                              const std::map<ProcessId, SporadicScript>& scripts = {});

 private:
  /// One invocation per slot in add() order; a burst of m is m equal
  /// slots.
  std::vector<Invocation> slots_;
};

}  // namespace fppn
