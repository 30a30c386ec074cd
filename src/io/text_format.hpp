// A textual description format for FPPNs — the front end of the command
// line tool (tools/fppn_tool.cpp), standing in for the CERTAINTY
// programming language the paper's toolchain compiles (§V).
//
// Line-oriented; '#' starts a comment. Durations are rational
// milliseconds ("200", "40/3"). Statements:
//
//   process <name> periodic  period=<T> deadline=<d> [burst=<m>] [wcet=<C>]
//   process <name> sporadic  burst=<m> period=<T> deadline=<d> [wcet=<C>]
//   channel <fifo|blackboard> <name> <writer> -> <reader>
//   input  <name> -> <process>
//   output <name> <- <process>
//   priority <higher> > <lower>
//   priority auto-rm            # rate-monotonic completion (builder rule)
//
// All processes get no-op behaviors: the text format feeds the *timing*
// toolchain (task-graph derivation, scheduling, policy simulation);
// functional behavior stays in C++.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "fppn/network.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn::io {

/// Parse failure with a 1-based line number.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

struct ParsedNetwork {
  Network net;
  WcetMap wcets;            ///< only processes that declared wcet=
  bool wcets_complete = false;  ///< every process declared one
};

/// Parses a network description. Throws ParseError on syntax errors and
/// std::invalid_argument for semantic violations (via NetworkBuilder).
[[nodiscard]] ParsedNetwork parse_network(std::istream& in);
[[nodiscard]] ParsedNetwork parse_network_string(const std::string& text);

/// Renders a network (and optional WCETs) back to the text format;
/// parse(write(n)) reproduces the same structure.
[[nodiscard]] std::string write_network(const Network& net, const WcetMap& wcets = {});

/// Parses "200" or "40/3" as a duration in ms. Throws std::invalid_argument.
[[nodiscard]] Duration parse_duration(std::string_view text);

}  // namespace fppn::io
