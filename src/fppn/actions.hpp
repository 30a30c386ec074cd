// Execution traces (§II-A).
//
// The paper defines execution as a trace over actions Act: waits w(tau),
// channel reads x?c, channel writes x!c, external-I/O samples x?[k]I,
// x![k]O. We record job boundaries too, so a trace shows which job run
// each access belongs to. Traces are the object the zero-delay semantics
// produces and the object the determinism tests compare (after projecting
// away waits and job interleaving).
#pragma once

#include <cstdint>
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

  void clear() { actions_.clear(); }

 private:
  std::vector<Action> actions_;
};

}  // namespace fppn
