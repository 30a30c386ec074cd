#include "fppn/semantics.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "graph/algorithms.hpp"

namespace fppn {

std::vector<ProcessId> order_simultaneous(const Network& net,
                                          const std::vector<ProcessId>& invoked_multiset,
                                          SimultaneityTieBreak tie_break) {
  // Count multiplicities, keep one node per distinct process.
  std::map<ProcessId, int> multiplicity;
  for (const ProcessId p : invoked_multiset) {
    ++multiplicity[p];
  }
  std::vector<NodeId> subset;
  subset.reserve(multiplicity.size());
  for (const auto& [p, cnt] : multiplicity) {
    (void)cnt;
    subset.push_back(NodeId(p.value()));
  }
  const auto prefer = [tie_break](NodeId a, NodeId b) {
    return tie_break == SimultaneityTieBreak::kByProcessId ? a < b : a > b;
  };
  const auto order = topological_sort_subset(net.priority_graph(), subset, prefer);
  if (!order.has_value()) {
    throw std::invalid_argument(
        "simultaneous invocation group cannot be ordered: FP cycle");
  }
  std::vector<ProcessId> result;
  result.reserve(invoked_multiset.size());
  for (const NodeId n : *order) {
    const ProcessId p{n.value()};
    for (int i = 0; i < multiplicity[p]; ++i) {
      result.push_back(p);
    }
  }
  return result;
}

namespace {

/// Hash of one simultaneous multiset (process ids sorted, bursts repeated).
struct MultisetHash {
  std::size_t operator()(const std::vector<ProcessId>& multiset) const noexcept {
    std::size_t h = multiset.size();
    for (const ProcessId p : multiset) {
      h = (h ^ p.value()) * 0x100000001b3ULL;
    }
    return h;
  }
};

/// The §II-B interpreter both entry points share: appends every action to
/// the result's trace when `traced`, else hands ExecutionState the null
/// sink and keeps the histories only.
ZeroDelayResult interpret(const Network& net, const InvocationPlan& plan,
                          const InputScripts& inputs, SimultaneityTieBreak tie_break,
                          bool traced) {
  ZeroDelayResult result;
  ExecutionState state(net, inputs, traced ? &result.trace : nullptr);
  // order_simultaneous is a pure function of (net, multiset, tie_break),
  // and a run repeats the same few multisets: order each one once. `key`
  // holds the current instant's multiset and is reused for every lookup.
  std::unordered_map<std::vector<ProcessId>, std::vector<ProcessId>, MultisetHash>
      orders;
  std::vector<ProcessId> key;
  const std::vector<Invocation> slots = plan.sorted_slots();
  for (std::size_t first = 0, last = 0; first < slots.size(); first = last) {
    const Time& now = slots[first].time;
    key.clear();
    while (last < slots.size() && slots[last].time == now) {
      key.push_back(slots[last++].process);
    }
    state.advance_time(now);
    auto it = orders.find(key);
    if (it == orders.end()) {
      it = orders.emplace(key, order_simultaneous(net, key, tie_break)).first;
    }
    for (const ProcessId p : it->second) {
      state.run_job(p, now);
      ++result.jobs_executed;
    }
  }
  result.histories = std::move(state).histories();
  return result;
}

}  // namespace

ZeroDelayResult run_zero_delay(const Network& net, const InvocationPlan& plan,
                               const InputScripts& inputs,
                               SimultaneityTieBreak tie_break) {
  return interpret(net, plan, inputs, tie_break, true);
}

ZeroDelayResult run_zero_delay_histories(const Network& net, const InvocationPlan& plan,
                                         const InputScripts& inputs) {
  return interpret(net, plan, inputs, SimultaneityTieBreak::kByProcessId, false);
}

}  // namespace fppn
