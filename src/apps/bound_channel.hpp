// A behaviour's channel, named once and resolved to its ChannelId on the
// first access. The example applications' behaviours hold one per channel
// they use, so a job reads and writes by id instead of looking the name up
// (and building a std::string for it) on every access. A fresh behaviour
// instance is made per execution, so an id is never reused across
// networks.
//
// Misuse fails exactly as JobContext's by-name calls do: an unknown name
// goes through JobContext::read/write(name), which throws their
// std::invalid_argument, and a channel the process does not own throws
// the state's std::logic_error on the id path as it would on the name
// path.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "fppn/exec_state.hpp"

namespace fppn::apps {

class BoundChannel {
 public:
  explicit BoundChannel(std::string name) : name_(std::move(name)) {}

  Value read(JobContext& ctx) { return bind(ctx) ? ctx.read(*id_) : ctx.read(name_); }

  void write(JobContext& ctx, Value v) {
    if (bind(ctx)) {
      ctx.write(*id_, std::move(v));
    } else {
      ctx.write(name_, std::move(v));
    }
  }

 private:
  /// True once the name has an id in the context's network.
  bool bind(const JobContext& ctx) {
    if (!id_.has_value()) {
      id_ = ctx.network().find_channel(name_);
    }
    return id_.has_value();
  }

  std::string name_;
  std::optional<ChannelId> id_;
};

}  // namespace fppn::apps
