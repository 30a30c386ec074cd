// The text rendering of an ActionTrace that the trace tests read and
// RuntimeGolden digests. Only tests render action traces, so it lives
// here rather than in the library.
#pragma once

#include <sstream>
#include <string>
#include <type_traits>
#include <variant>

#include "fppn/actions.hpp"
#include "fppn/network.hpp"

namespace fppn::testing {

/// Renders "w(0) InputA[1]:read(in)=5 InputA[1]:write(c1)=25 ..." style
/// text; one action per line when `multiline`.
inline std::string trace_to_string(const ActionTrace& trace, const Network& net,
                                   bool multiline = true) {
  std::ostringstream os;
  const char* sep = multiline ? "\n" : " ";
  bool first = true;
  for (const Action& a : trace.actions()) {
    if (!first) {
      os << sep;
    }
    first = false;
    std::visit(
        [&](const auto& act) {
          using T = std::decay_t<decltype(act)>;
          if constexpr (std::is_same_v<T, WaitAction>) {
            os << "w(" << act.time << ")";
          } else if constexpr (std::is_same_v<T, JobStartAction>) {
            os << net.process(act.process).name << "[" << act.k << "]:start";
          } else if constexpr (std::is_same_v<T, JobEndAction>) {
            os << net.process(act.process).name << "[" << act.k << "]:end";
          } else if constexpr (std::is_same_v<T, ReadAction>) {
            os << net.process(act.process).name << "[" << act.k << "]:read("
               << net.channel(act.channel).name << ")=" << act.value;
          } else if constexpr (std::is_same_v<T, WriteAction>) {
            os << net.process(act.process).name << "[" << act.k << "]:write("
               << net.channel(act.channel).name << ")=" << act.value;
          }
        },
        a);
  }
  return os.str();
}

}  // namespace fppn::testing
