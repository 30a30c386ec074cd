// Observable histories of one execution — the object functional
// determinism (Prop. 2.1) is stated over: "the sequences of values written
// at all external and internal channels are functionally dependent on the
// time stamps of the event generators and on the data samples at the
// external inputs."
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fppn/value.hpp"
#include "rt/ids.hpp"
#include "rt/time.hpp"

namespace fppn {

class Network;  // fwd

/// One sample written to an external output: x![k]O at model time `time`.
struct OutputSample {
  std::int64_t k = 0;  ///< job index of the writing job
  Time time;           ///< model time of the write
  Value value;

  friend bool operator==(const OutputSample& a, const OutputSample& b) {
    return a.k == b.k && a.time == b.time && a.value == b.value;
  }
  friend bool operator!=(const OutputSample& a, const OutputSample& b) {
    return !(a == b);
  }
};

/// Per-channel written-value sequences for one complete execution.
class ExecutionHistories {
 public:
  /// History (sequence of written values) of any channel, by id.
  std::map<ChannelId, std::vector<Value>> channel_writes;

  /// Timed samples for external outputs only.
  std::map<ChannelId, std::vector<OutputSample>> output_samples;

  /// Equality of *functional* content: channel write sequences and output
  /// sample values+indices, but NOT the write times (the real-time
  /// semantics legitimately shifts them; determinism is about values).
  [[nodiscard]] bool functionally_equal(const ExecutionHistories& other) const;

  /// Content fingerprint of the functional part; equal histories hash
  /// equally (used for cheap cross-run comparisons in property tests).
  [[nodiscard]] std::size_t fingerprint() const;

  /// First difference description, or empty when functionally equal.
  [[nodiscard]] std::string diff(const ExecutionHistories& other,
                                 const Network& net) const;
};

}  // namespace fppn
