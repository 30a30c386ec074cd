// Mutable execution state of an FPPN run and the JobContext handed to
// process behaviors.
//
// ExecutionState owns: one ChannelRuntime per internal channel, one fresh
// behavior instance per process, per-process job counters k and the
// histories. Two things belong to the caller and must outlive the state:
//  - the external input scripts (sample arrays indexed by k, per §II-A:
//    the k-th job run reads sample [k]). The state reads them in place
//    and copies none; it cannot be built from a temporary InputScripts,
//    since that would dangle;
//  - the action trace: the state appends to the ActionTrace it was
//    handed, or records nothing when handed none (the online runtimes
//    compare histories only).
//
// Both semantics engines drive the same state object: the zero-delay
// interpreter (semantics.hpp) runs jobs back-to-back at invocation
// instants; the online runtimes (src/runtime) run the same jobs at real
// start times — determinism (Prop. 2.1) says the histories must agree,
// and the tests check exactly that.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fppn/actions.hpp"
#include "fppn/channel.hpp"
#include "fppn/histories.hpp"
#include "fppn/network.hpp"

namespace fppn {

/// External input scripts: for each external input channel, the sample
/// array; the k-th job run of the reader gets sample index k (1-based).
using InputScripts = std::map<ChannelId, std::vector<Value>>;

class ExecutionState;

/// The capability object a job run uses to interact with channels. It
/// enforces the access discipline of Def. 2.1/2.2: a process may only read
/// channels it is the declared reader of and only write channels it is the
/// declared writer of; external inputs are sampled by job index.
class JobContext {
 public:
  JobContext(ExecutionState& state, ProcessId self, std::int64_t k, Time now);

  /// The process this job belongs to.
  [[nodiscard]] ProcessId self() const noexcept { return self_; }
  /// 1-based job index (invocation count) of this run.
  [[nodiscard]] std::int64_t job_index() const noexcept { return k_; }
  /// Invocation time stamp of this job.
  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] const Network& network() const noexcept;

  /// Non-blocking read (x?c for internal channels, x?[k]I for external
  /// inputs). Returns no_data() when nothing is available. Throws
  /// std::logic_error when this process is not the channel's reader.
  Value read(ChannelId c);
  Value read(const std::string& channel_name);

  /// Write (x!c / x![k]O). Throws std::logic_error when this process is
  /// not the channel's writer.
  void write(ChannelId c, Value v);
  void write(const std::string& channel_name, Value v);

 private:
  ExecutionState& state_;
  ProcessId self_;
  std::int64_t k_;
  Time now_;
};

class ExecutionState {
 public:
  /// Fresh state: channels empty, behaviors newly constructed, counters 0.
  /// `inputs` is read in place and must outlive the state. Every action is
  /// appended to `*trace` when it is non-null; the trace must outlive the
  /// state.
  ExecutionState(const Network& net, const InputScripts& inputs,
                 ActionTrace* trace = nullptr);
  /// A temporary InputScripts would dangle: build the state from one the
  /// caller keeps alive.
  ExecutionState(const Network& net, InputScripts&& inputs,
                 ActionTrace* trace = nullptr) = delete;

  [[nodiscard]] const Network& network() const noexcept { return *net_; }

  /// Runs one job execution run of process p at model time `now`,
  /// incrementing its invocation count. Returns the job index k used.
  std::int64_t run_job(ProcessId p, Time now);

  /// Moves model time to t, recording w(t) (time must not decrease).
  void advance_time(Time t);

  /// Snapshot of all channel histories + external output samples.
  [[nodiscard]] ExecutionHistories histories() const&;
  /// The same, moved out of a state that is finished with.
  [[nodiscard]] ExecutionHistories histories() &&;

 private:
  friend class JobContext;

  Value do_read(ProcessId p, std::int64_t k, ChannelId c);
  void do_write(ProcessId p, std::int64_t k, Time now, ChannelId c, Value v);

  const Network* net_;
  std::vector<ChannelRuntime> channels_;                    // internal channels only
  std::vector<std::unique_ptr<ProcessBehavior>> behaviors_; // per process
  std::vector<std::int64_t> job_counts_;                    // per process
  const InputScripts* inputs_;                              // the caller's
  std::map<ChannelId, std::vector<OutputSample>> outputs_;
  ActionTrace* trace_;  // the caller's sink; null records nothing
  Time current_time_;
  bool time_started_ = false;
};

}  // namespace fppn
