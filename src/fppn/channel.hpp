// Channel types and runtime channel state (CT_c in Def. 2.1, §II-A).
//
// The paper defines two default channel types with *non-blocking* access:
//  - FIFO: a queue; reading an empty FIFO yields the non-availability value,
//  - blackboard: remembers the last written value, readable many times;
//    reading an uninitialized blackboard yields non-availability.
// ChannelRuntime also records the full written-value history, which is what
// Prop. 2.1 (determinism) quantifies over and what the tests compare.
//
// The history is the only storage: a blackboard's value is its last
// entry, and a FIFO's queue is the suffix from a read cursor to the end.
// A write stores its Value once.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "fppn/value.hpp"

namespace fppn {

enum class ChannelKind : std::uint8_t { kFifo, kBlackboard };

[[nodiscard]] std::string to_string(ChannelKind k);

/// Where a channel sits in the network: between two processes, or at the
/// boundary (I and O in Def. 2.1, partitioned over event generators).
enum class ChannelScope : std::uint8_t { kInternal, kExternalInput, kExternalOutput };

/// Mutable state of one internal channel during an execution.
class ChannelRuntime {
 public:
  explicit ChannelRuntime(ChannelKind kind) : kind_(kind) {}

  [[nodiscard]] ChannelKind kind() const noexcept { return kind_; }

  /// Non-blocking read. FIFO: pops and returns the head, or no_data() when
  /// empty. Blackboard: returns the last written value without consuming
  /// it, or no_data() when never written.
  [[nodiscard]] Value read();

  /// Appends (FIFO) or overwrites (blackboard) and records the history.
  void write(Value v);

  /// Peek without consuming (FIFO head or blackboard value).
  [[nodiscard]] Value peek() const;

  /// Number of values currently buffered (FIFO size; blackboard: 0 or 1).
  [[nodiscard]] std::size_t buffered() const noexcept;

  /// Every value ever written, in order — the channel's output history in
  /// the sense of Prop. 2.1.
  [[nodiscard]] const std::vector<Value>& history() const& noexcept { return history_; }
  /// The history moved out; the channel is left with no history and
  /// nothing buffered.
  [[nodiscard]] std::vector<Value> history() && noexcept {
    head_ = 0;
    return std::move(history_);
  }

 private:
  ChannelKind kind_;
  std::vector<Value> history_;
  std::size_t head_ = 0;  ///< FIFO only: the next unread entry of history_
};

}  // namespace fppn
