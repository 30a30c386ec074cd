#include "fppn/semantics.hpp"

#include <algorithm>
#include <stdexcept>

namespace fppn {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool has_bit(const std::vector<std::uint64_t>& bits, std::size_t i) {
  return ((bits[i / 64] >> (i % 64)) & 1U) != 0;
}

void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i / 64] |= std::uint64_t{1} << (i % 64);
}

/// Calls visit(i) for each set bit i, ascending.
template <class Visit>
void for_each_bit(const std::vector<std::uint64_t>& bits, Visit visit) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      visit(w * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
    }
  }
}

}  // namespace

SimultaneousOrder::SimultaneousOrder(const Digraph& fp, SimultaneityTieBreak tie_break)
    : fp_(&fp),
      largest_first_(tie_break == SimultaneityTieBreak::kByReverseProcessId),
      count_(fp.node_count(), 0),
      pending_(fp.node_count(), 0),
      member_((fp.node_count() + 63) / 64, 0),
      ready_(member_.size(), 0) {}

void SimultaneousOrder::add(ProcessId p) {
  const std::size_t i = p.value();
  if (i >= count_.size()) {
    throw std::invalid_argument("simultaneous invocation of an unknown process");
  }
  if (count_[i]++ == 0) {
    set_bit(member_, i);
    ++distinct_;
  }
}

std::size_t SimultaneousOrder::pick_ready() const {
  const std::size_t words = ready_.size();
  for (std::size_t k = 0; k < words; ++k) {
    const std::size_t w = largest_first_ ? words - 1 - k : k;
    if (ready_[w] != 0) {
      const int bit = largest_first_ ? 63 - __builtin_clzll(ready_[w])
                                     : __builtin_ctzll(ready_[w]);
      return w * 64 + static_cast<std::size_t>(bit);
    }
  }
  return kNone;
}

void SimultaneousOrder::clear_group() {
  for_each_bit(member_, [this](std::size_t i) {
    count_[i] = 0;
    pending_[i] = 0;
  });
  std::fill(member_.begin(), member_.end(), 0);
  std::fill(ready_.begin(), ready_.end(), 0);
  distinct_ = 0;
}

const std::vector<ProcessId>& SimultaneousOrder::take() {
  order_.clear();
  // In-group indegrees, then the members without in-group predecessors.
  for_each_bit(member_, [this](std::size_t i) {
    for (const NodeId q : fp_->successors(NodeId(i))) {
      if (has_bit(member_, q.value())) {
        ++pending_[q.value()];
      }
    }
  });
  for_each_bit(member_, [this](std::size_t i) {
    if (pending_[i] == 0) {
      set_bit(ready_, i);
    }
  });
  std::size_t placed = 0;
  for (std::size_t i = pick_ready(); i != kNone; i = pick_ready()) {
    ready_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    for (std::uint32_t k = 0; k < count_[i]; ++k) {
      order_.push_back(ProcessId(i));
    }
    ++placed;
    for (const NodeId q : fp_->successors(NodeId(i))) {
      if (has_bit(member_, q.value()) && --pending_[q.value()] == 0) {
        set_bit(ready_, q.value());
      }
    }
  }
  const bool cyclic = placed != distinct_;
  clear_group();
  if (cyclic) {
    order_.clear();
    throw std::invalid_argument(
        "simultaneous invocation group cannot be ordered: FP cycle");
  }
  return order_;
}

namespace {

/// The §II-B interpreter both entry points share: appends every action to
/// the result's trace when `traced`, else hands ExecutionState the null
/// sink and keeps the histories only.
ZeroDelayResult interpret(const Network& net, const InvocationPlan& plan,
                          const InputScripts& inputs, SimultaneityTieBreak tie_break,
                          bool traced) {
  ZeroDelayResult result;
  ExecutionState state(net, inputs, traced ? &result.trace : nullptr);
  SimultaneousOrder order(net.priority_graph(), tie_break);
  const std::vector<Invocation> slots = plan.sorted_slots();
  for (std::size_t first = 0, last = 0; first < slots.size(); first = last) {
    const Time& now = slots[first].time;
    while (last < slots.size() && slots[last].time == now) {
      order.add(slots[last++].process);
    }
    state.advance_time(now);
    for (const ProcessId p : order.take()) {
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
