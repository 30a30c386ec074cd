// Execution traces (§II-A).
//
// The paper defines execution as a trace over actions Act: waits w(tau),
// channel reads x?c, channel writes x!c, external-I/O samples x?[k]I,
// x![k]O. We record job boundaries too so traces can be projected per
// process/job. Traces are the object the zero-delay semantics produces and
// the object the determinism tests compare (after projecting away waits
// and job interleaving).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "fppn/value.hpp"
#include "rt/ids.hpp"
#include "rt/time.hpp"

namespace fppn {

/// w(tau): model time advances to tau.
struct WaitAction {
  Time time;
};

/// Start of the k-th job execution run of a process.
struct JobStartAction {
  ProcessId process;
  std::int64_t k = 0;
};

/// End of the k-th job execution run of a process.
struct JobEndAction {
  ProcessId process;
  std::int64_t k = 0;
};

/// x?c or x?[k]I: a read; `value` is what the read returned.
struct ReadAction {
  ProcessId process;
  std::int64_t k = 0;       ///< job index performing the read
  ChannelId channel;
  Value value;
};

/// x!c or x![k]O: a write of `value`.
struct WriteAction {
  ProcessId process;
  std::int64_t k = 0;
  ChannelId channel;
  Value value;
};

using Action =
    std::variant<WaitAction, JobStartAction, JobEndAction, ReadAction, WriteAction>;

/// A full execution trace alpha in Act*.
class ActionTrace {
 public:
  /// Appends `action`, one of Action's alternatives. The Action is built
  /// in place: moving a temporary Action instead makes g++ 12 at -O3 warn
  /// (-Wmaybe-uninitialized) about the other alternatives' members.
  template <class T>
  void push(T action) {
    actions_.emplace_back(std::in_place_type<T>, std::move(action));
  }

  [[nodiscard]] const std::vector<Action>& actions() const noexcept { return actions_; }
  [[nodiscard]] std::size_t size() const noexcept { return actions_.size(); }
  [[nodiscard]] bool empty() const noexcept { return actions_.empty(); }

  /// Only the write actions on a given channel, in order — the channel
  /// history Prop. 2.1 speaks about.
  [[nodiscard]] std::vector<WriteAction> writes_to(ChannelId c) const;

  /// Only the actions of a given process.
  [[nodiscard]] std::vector<Action> of_process(ProcessId p) const;

  void clear() { actions_.clear(); }

 private:
  std::vector<Action> actions_;
};

class Network;  // fwd

/// Renders "w(0) InputA[1]:read(in)=5 InputA[1]:write(c1)=25 ..." style
/// text; one action per line when `multiline`.
[[nodiscard]] std::string trace_to_string(const ActionTrace& trace, const Network& net,
                                          bool multiline = true);

}  // namespace fppn
