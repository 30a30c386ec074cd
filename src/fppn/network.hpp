// The FPPN itself (Def. 2.1) and its builder.
//
// PN = (P, C, FP, e_p, I_e, O_e, d_e, Sigma_c, CT_c):
//  - P: processes, each bound to one event generator (EventSpec) and a
//    behavior (a subroutine; Def. 2.2 automata are one way to supply it),
//  - C: internal channels, each a (writer, reader) pair with a channel type,
//  - FP: the *functional priority* DAG. It must relate every pair of
//    processes sharing a channel — that is what makes execution
//    deterministic (Prop. 2.1) — but it is a semantic device, not a
//    scheduling priority.
//  - I, O: external input/output channels partitioned over the generators.
//
// Validation on build() enforces: FP acyclic, FP covers channel-sharing
// pairs, spec sanity, name uniqueness. The *schedulable subclass* check of
// §III-A (every sporadic process has exactly one periodic user with
// T_u <= T_p) is exposed separately because plain simulation does not need
// it — only task-graph derivation does.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fppn/channel.hpp"
#include "fppn/event.hpp"
#include "graph/digraph.hpp"
#include "rt/ids.hpp"

namespace fppn {

class JobContext;  // fwd (exec_state.hpp)

/// One job execution run of a process: a subroutine that reads its input
/// channels, updates internal variables and writes its output channels.
/// Implementations must be deterministic functions of their internal state
/// and the values read through the context.
class ProcessBehavior {
 public:
  virtual ~ProcessBehavior() = default;
  /// Executes the k-th job run (k available from the context).
  virtual void on_job(JobContext& ctx) = 0;
};

/// Fresh behavior instance per execution, so repeated runs start from the
/// initial internal state (X_p0 in Def. 2.2).
using BehaviorFactory = std::function<std::unique_ptr<ProcessBehavior>()>;

/// Adapts a plain callable (with per-execution state captured in the
/// factory) to ProcessBehavior.
class LambdaBehavior final : public ProcessBehavior {
 public:
  explicit LambdaBehavior(std::function<void(JobContext&)> fn) : fn_(std::move(fn)) {}
  void on_job(JobContext& ctx) override { fn_(ctx); }

 private:
  std::function<void(JobContext&)> fn_;
};

/// Factory for stateless behaviors (or ones carrying their own state in the
/// closure — note such state is shared across executions; prefer a real
/// ProcessBehavior subclass for stateful processes).
[[nodiscard]] BehaviorFactory behavior(std::function<void(JobContext&)> fn);

/// A do-nothing behavior (useful for pure timing/scheduling experiments).
[[nodiscard]] BehaviorFactory no_op_behavior();

/// Static description of one process.
struct ProcessDecl {
  std::string name;
  EventSpec event;
  BehaviorFactory make_behavior;
  std::vector<ChannelId> reads;    ///< channels this process reads (I_p)
  std::vector<ChannelId> writes;   ///< channels this process writes (O_p)
};

/// Static description of one channel.
struct ChannelDecl {
  std::string name;
  ChannelKind kind = ChannelKind::kFifo;
  ChannelScope scope = ChannelScope::kInternal;
  ProcessId writer;  ///< invalid for external inputs
  ProcessId reader;  ///< invalid for external outputs
  /// FIFO buffer capacity. 1 = the paper's single-slot semantics (accesses
  /// totally serialized by the §III-A edge rule). >= 2 marks a *buffered*
  /// channel — the "buffering and pipelining" extension the paper names as
  /// future work: the writer keeps functional priority over the reader
  /// (zero-delay determinism), but the task graph replaces the
  /// serialization edges with dataflow edges w[k] -> r[k] and buffer-reuse
  /// edges r[k] -> w[k+capacity], so successive hyperperiod instances of
  /// the pair can overlap on different processors.
  int capacity = 1;

  [[nodiscard]] bool is_buffered() const noexcept { return capacity > 1; }
};

/// Immutable, validated FPPN. Construct through NetworkBuilder; the
/// default constructor yields an empty network (useful as a placeholder
/// member before assignment from a builder).
class Network {
 public:
  Network() = default;

  [[nodiscard]] std::size_t process_count() const noexcept { return processes_.size(); }
  [[nodiscard]] std::size_t channel_count() const noexcept { return channels_.size(); }

  [[nodiscard]] const ProcessDecl& process(ProcessId p) const;
  [[nodiscard]] const ChannelDecl& channel(ChannelId c) const;

  [[nodiscard]] std::optional<ProcessId> find_process(const std::string& name) const;
  [[nodiscard]] std::optional<ChannelId> find_channel(const std::string& name) const;

  /// The functional-priority DAG over process ids (node i == process i).
  [[nodiscard]] const Digraph& priority_graph() const noexcept { return fp_; }

  /// Direct FP edge p1 -> p2 (NOT the transitive closure; the task-graph
  /// edge rule of §III-A uses exactly this).
  [[nodiscard]] bool has_priority(ProcessId p1, ProcessId p2) const;

  /// p1 |><| p2: FP-related in either direction.
  [[nodiscard]] bool priority_related(ProcessId p1, ProcessId p2) const;

  /// All internal channels adjacent to p (as writer or reader).
  [[nodiscard]] std::vector<ChannelId> internal_channels_of(ProcessId p) const;

  /// The unique periodic "user" process of sporadic p (§III-A): the single
  /// counterpart p shares internal channels with. std::nullopt when p is
  /// not sporadic or the subclass restriction fails.
  [[nodiscard]] std::optional<ProcessId> user_of(ProcessId p) const;

  /// True iff every sporadic process has exactly one user, the user is
  /// periodic, and T_user <= T_sporadic. Required by task-graph derivation.
  [[nodiscard]] bool in_schedulable_subclass(std::string* why = nullptr) const;

  /// Hyperperiod H = lcm of all periods of PN' (sporadics replaced by
  /// their servers, i.e. contributing their *user's* period). Requires the
  /// schedulable subclass. (Footnote 4: lcm over rationals.)
  [[nodiscard]] Duration hyperperiod() const;

 private:
  friend class NetworkBuilder;

  std::vector<ProcessDecl> processes_;
  std::vector<ChannelDecl> channels_;
  Digraph fp_;
};

/// Fluent construction + validation.
class NetworkBuilder {
 public:
  NetworkBuilder() = default;

  /// Periodic process with burst 1.
  ProcessId periodic(const std::string& name, Duration period, Duration deadline,
                     BehaviorFactory behavior);

  /// Multi-periodic process: bursts of `burst` invocations every period.
  ProcessId multi_periodic(const std::string& name, int burst, Duration period,
                           Duration deadline, BehaviorFactory behavior);

  /// Sporadic process: at most `burst` invocations per window of `period`.
  ProcessId sporadic(const std::string& name, int burst, Duration period,
                     Duration deadline, BehaviorFactory behavior);

  /// Internal channel writer -> reader.
  ChannelId channel(const std::string& name, ChannelKind kind, ProcessId writer,
                    ProcessId reader);
  ChannelId fifo(const std::string& name, ProcessId writer, ProcessId reader) {
    return channel(name, ChannelKind::kFifo, writer, reader);
  }
  ChannelId blackboard(const std::string& name, ProcessId writer, ProcessId reader) {
    return channel(name, ChannelKind::kBlackboard, writer, reader);
  }

  /// Buffered FIFO (capacity >= 2): the pipelining extension. The builder
  /// installs the mandatory writer -> reader functional priority itself
  /// (a conflicting explicit reader -> writer edge fails the FP DAG
  /// check). Both endpoints must be periodic with identical period and
  /// burst — the equal-rate restriction of this prototype, checked at
  /// task-graph derivation.
  ChannelId buffered_fifo(const std::string& name, ProcessId writer, ProcessId reader,
                          int capacity);

  /// External input channel read by `reader` (assigned to its generator's
  /// I_e partition). External inputs behave as sample arrays indexed by
  /// the job count k (§II-A: x?[k]I_e).
  ChannelId external_input(const std::string& name, ProcessId reader);

  /// External output channel written by `writer` (O_e partition).
  ChannelId external_output(const std::string& name, ProcessId writer);

  /// Functional priority edge: higher -> lower.
  NetworkBuilder& priority(ProcessId higher, ProcessId lower);

  /// Adds the missing FP edges between channel-sharing pairs using the
  /// rate-monotonic rule (shorter period = higher priority; ties broken by
  /// declaration order). This matches the FMS case study (§V-B). Explicit
  /// priority() edges win over the automatic rule.
  NetworkBuilder& auto_rate_monotonic_priorities();

  /// Validates and produces the immutable network. Throws
  /// std::invalid_argument with a precise message on any violation.
  [[nodiscard]] Network build() &&;

 private:
  ProcessId add_process(const std::string& name, EventSpec spec,
                        BehaviorFactory behavior);

  Network net_;
  std::vector<std::pair<ProcessId, ProcessId>> fp_edges_;
  bool auto_rm_ = false;
};

}  // namespace fppn
