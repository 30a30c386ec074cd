// runtime::Runtime — the uniform execution-backend interface.
//
// Both deployments of the static-order policy (§IV) sit behind one
// `run(net, derived, schedule, opts)` entry point with one RunOptions and
// one RunResult type, which the backends' own run functions take too:
//   "vm"      — the deterministic simulated-time virtual multiprocessor,
//   "threads" — the real std::thread deployment (the paper's Linux runtime).
// Both decide which server jobs are 'false' from the caller's sporadic
// scripts by the same rule (runtime/sporadic_window.hpp); "threads" only
// delivers each decision at its wall-clock instant.
// Backends are discovered by name through RuntimeRegistry, mirroring the
// scheduling-strategy registry; registering a new backend is one add()
// call, no engine edits:
//
//   RuntimeRegistry::global().add("my-backend", [] {
//     return std::make_unique<MyRuntime>();
//   });
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "rt/registry.hpp"
#include "runtime/thread_runtime.hpp"
#include "runtime/vm_runtime.hpp"

namespace fppn {
namespace runtime {

/// The one run-options type of both backends (runtime/vm_runtime.hpp);
/// each backend ignores the field it does not model.
using fppn::RunOptions;

class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Registry key; stable, lowercase.
  [[nodiscard]] virtual std::string name() const = 0;

  /// One-line description for --help output.
  [[nodiscard]] virtual std::string description() const = 0;

  /// Executes `opts.frames` repetitions of the schedule frame and returns
  /// the common RunResult (trace, histories, deadline misses). Throws
  /// std::invalid_argument on incomplete schedules or bad options
  /// (frames < 1, negative actual execution times).
  ///
  /// Determinism: every backend must produce output histories
  /// functionally equal to the zero-delay reference (Prop. 4.1) — "vm" is
  /// additionally bit-deterministic in its trace times, while "threads"
  /// measures wall time, so its trace/deadline numbers carry OS jitter.
  /// Thread safety: backends are stateless; one instance may serve
  /// concurrent run() calls, and make_runtime hands out fresh instances
  /// anyway.
  [[nodiscard]] virtual RunResult run(
      const Network& net, const DerivedTaskGraph& derived,
      const StaticSchedule& schedule, const RunOptions& opts = {},
      const InputScripts& inputs = {},
      const std::map<ProcessId, SporadicScript>& sporadics = {}) const = 0;
};

/// Thrown by create() for a name with no registered backend. The message
/// lists every available runtime.
class UnknownRuntimeError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class RuntimeRegistry : public detail::NameRegistry<Runtime, UnknownRuntimeError> {
 public:
  RuntimeRegistry() : NameRegistry("runtime") {}

  /// The process-wide registry, pre-loaded with "vm" and "threads".
  /// First call initializes it thread-safely. Like the strategy registry,
  /// add() is not synchronized against concurrent lookups — register
  /// backends at startup, read from anywhere afterwards.
  [[nodiscard]] static RuntimeRegistry& global();
};

/// Shorthand for RuntimeRegistry::global().create(name). Throws
/// UnknownRuntimeError (listing the registered backends) for unknown
/// names.
[[nodiscard]] std::unique_ptr<Runtime> make_runtime(const std::string& name);

}  // namespace runtime
}  // namespace fppn
