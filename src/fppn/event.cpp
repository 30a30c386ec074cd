#include "fppn/event.hpp"

#include <algorithm>
#include <stdexcept>

#include "fppn/network.hpp"

namespace fppn {

std::string to_string(EventKind k) {
  switch (k) {
    case EventKind::kPeriodic:
      return "periodic";
    case EventKind::kSporadic:
      return "sporadic";
  }
  return "?";
}

void EventSpec::validate() const {
  if (burst < 1) {
    throw std::invalid_argument("event spec: burst size must be >= 1");
  }
  if (!period.is_positive()) {
    throw std::invalid_argument("event spec: period must be positive");
  }
  if (!deadline.is_positive()) {
    throw std::invalid_argument("event spec: deadline must be positive");
  }
}

bool satisfies_sporadic_constraint(const std::vector<Time>& sorted_times, int burst,
                                   const Duration& period) {
  if (burst < 1 || !period.is_positive()) {
    return false;
  }
  const std::size_t m = static_cast<std::size_t>(burst);
  for (std::size_t i = 0; i + m < sorted_times.size(); ++i) {
    // If m+1 events fit strictly inside a window of length `period` the
    // half-closed-window bound of m is violated.
    if (sorted_times[i + m] - sorted_times[i] < period) {
      return false;
    }
  }
  return true;
}

SporadicScript::SporadicScript(std::vector<Time> times, int burst,
                               const Duration& period)
    : times_(std::move(times)) {
  std::sort(times_.begin(), times_.end());
  for (const Time& t : times_) {
    if (t < Time()) {
      throw std::invalid_argument("sporadic script: negative time stamp");
    }
  }
  if (!satisfies_sporadic_constraint(times_, burst, period)) {
    throw std::invalid_argument(
        "sporadic script violates the (m, T) sporadic constraint");
  }
}

SporadicScript SporadicScript::random(int burst, const Duration& period, Time horizon,
                                      std::uint64_t seed) {
  if (burst < 1 || !period.is_positive()) {
    throw std::invalid_argument("sporadic random: bad burst/period");
  }
  std::mt19937_64 rng(seed);
  std::vector<Time> times;
  // Anchor-based generation: window anchors a_0 = 0, a_{j+1} >= a_j + T;
  // inside window j place 0..m events at distinct multiples of T/(4m).
  // Successive windows are separated by >= T so no window of length T can
  // span events of more than two anchors... we keep it simpler and safe:
  // place at most m events per anchor and advance anchors by exactly T or
  // more, then validate.
  Time anchor;
  std::uniform_int_distribution<int> count_dist(0, burst);
  std::uniform_int_distribution<std::int64_t> jitter_dist(0, 3);
  const Duration slot = period / Rational(4 * static_cast<std::int64_t>(burst));
  while (anchor < horizon) {
    const int n = count_dist(rng);
    for (int j = 0; j < n; ++j) {
      const Time t = anchor + slot * Rational(j);
      if (t < horizon) {
        times.push_back(t);
      }
    }
    anchor += period + slot * Rational(jitter_dist(rng));
  }
  return SporadicScript(std::move(times), burst, period);
}

namespace {

bool slot_before(const Invocation& a, const Invocation& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return a.process < b.process;
}

}  // namespace

void InvocationPlan::add(Time t, ProcessId p, int count) {
  if (t < Time()) {
    throw std::invalid_argument("invocation plan: negative time");
  }
  if (count < 1) {
    throw std::invalid_argument("invocation plan: count must be >= 1");
  }
  slots_.insert(slots_.end(), static_cast<std::size_t>(count), Invocation{t, p});
}

std::vector<Invocation> InvocationPlan::sorted_slots() const {
  // build() adds each process's slots in time order, process by process,
  // so the slots are a few sorted runs. Merging neighbouring runs
  // pairwise, which keeps them in process-id order, costs O(N log runs)
  // compares instead of a sort's O(N log N); an add() order with no runs
  // degrades to a merge sort.
  std::vector<Invocation> slots = slots_;
  std::vector<std::size_t> bounds{0};
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slot_before(slots[i], slots[i - 1])) {
      bounds.push_back(i);
    }
  }
  bounds.push_back(slots.size());
  std::vector<Invocation> merged(slots.size());
  std::vector<std::size_t> merged_bounds;
  while (bounds.size() > 2) {
    merged_bounds.assign(1, 0);
    for (std::size_t r = 0; r + 1 < bounds.size(); r += 2) {
      const auto from = slots.begin();
      const std::size_t end = bounds[std::min(r + 2, bounds.size() - 1)];
      std::merge(from + static_cast<std::ptrdiff_t>(bounds[r]),
                 from + static_cast<std::ptrdiff_t>(bounds[r + 1]),
                 from + static_cast<std::ptrdiff_t>(bounds[r + 1]),
                 from + static_cast<std::ptrdiff_t>(end),
                 merged.begin() + static_cast<std::ptrdiff_t>(bounds[r]), slot_before);
      merged_bounds.push_back(end);
    }
    slots.swap(merged);
    bounds.swap(merged_bounds);
  }
  return slots;
}

InvocationPlan InvocationPlan::build(const Network& net, Time horizon,
                                     const std::map<ProcessId, SporadicScript>& scripts) {
  InvocationPlan plan;
  for (std::size_t i = 0; i < net.process_count(); ++i) {
    const ProcessId p{i};
    const EventSpec& spec = net.process(p).event;
    if (spec.kind == EventKind::kPeriodic) {
      for (Time t; t < horizon; t += spec.period) {
        plan.add(t, p, spec.burst);
      }
    } else {
      const auto it = scripts.find(p);
      if (it == scripts.end()) {
        continue;  // sporadic process that never fires
      }
      for (const Time& t : it->second.times()) {
        if (t < horizon) {
          plan.add(t, p);
        }
      }
    }
  }
  return plan;
}

}  // namespace fppn
