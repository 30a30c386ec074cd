#include "runtime/runtime.hpp"

namespace fppn {
namespace runtime {

namespace {

/// The simulated-time virtual multiprocessor behind the Runtime interface.
class VmRuntime final : public Runtime {
 public:
  [[nodiscard]] std::string name() const override { return "vm"; }
  [[nodiscard]] std::string description() const override {
    return "deterministic simulated-time virtual multiprocessor";
  }

  [[nodiscard]] RunResult run(
      const Network& net, const DerivedTaskGraph& derived,
      const StaticSchedule& schedule, const RunOptions& opts,
      const InputScripts& inputs,
      const std::map<ProcessId, SporadicScript>& sporadics) const override {
    return run_static_order_vm(net, derived, schedule, opts, inputs, sporadics);
  }
};

/// The real std::thread deployment behind the Runtime interface.
class ThreadRuntime final : public Runtime {
 public:
  [[nodiscard]] std::string name() const override { return "threads"; }
  [[nodiscard]] std::string description() const override {
    return "std::thread workers on scaled wall-clock time";
  }

  [[nodiscard]] RunResult run(
      const Network& net, const DerivedTaskGraph& derived,
      const StaticSchedule& schedule, const RunOptions& opts,
      const InputScripts& inputs,
      const std::map<ProcessId, SporadicScript>& sporadics) const override {
    return run_static_order_threads(net, derived, schedule, opts, inputs, sporadics);
  }
};

}  // namespace

RuntimeRegistry& RuntimeRegistry::global() {
  static RuntimeRegistry* registry = [] {
    auto* r = new RuntimeRegistry();
    r->add("vm", [] { return std::make_unique<VmRuntime>(); });
    r->add("threads", [] { return std::make_unique<ThreadRuntime>(); });
    return r;
  }();
  return *registry;
}

std::unique_ptr<Runtime> make_runtime(const std::string& name) {
  return RuntimeRegistry::global().create(name);
}

}  // namespace runtime
}  // namespace fppn
