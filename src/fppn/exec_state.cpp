#include "fppn/exec_state.hpp"

#include <stdexcept>

namespace fppn {

JobContext::JobContext(ExecutionState& state, ProcessId self, std::int64_t k, Time now)
    : state_(state), self_(self), k_(k), now_(now) {}

const Network& JobContext::network() const noexcept { return state_.network(); }

Value JobContext::read(ChannelId c) { return state_.do_read(self_, k_, c); }

Value JobContext::read(const std::string& channel_name) {
  const auto c = state_.network().find_channel(channel_name);
  if (!c.has_value()) {
    throw std::invalid_argument("read: unknown channel '" + channel_name + "'");
  }
  return read(*c);
}

void JobContext::write(ChannelId c, Value v) {
  state_.do_write(self_, k_, now_, c, std::move(v));
}

void JobContext::write(const std::string& channel_name, Value v) {
  const auto c = state_.network().find_channel(channel_name);
  if (!c.has_value()) {
    throw std::invalid_argument("write: unknown channel '" + channel_name + "'");
  }
  write(*c, std::move(v));
}

ExecutionState::ExecutionState(const Network& net, const InputScripts& inputs,
                               ActionTrace* trace)
    : net_(&net), inputs_(&inputs), trace_(trace) {
  channels_.reserve(net.channel_count());
  for (std::size_t i = 0; i < net.channel_count(); ++i) {
    channels_.emplace_back(net.channel(ChannelId{i}).kind);
  }
  behaviors_.reserve(net.process_count());
  for (std::size_t i = 0; i < net.process_count(); ++i) {
    behaviors_.push_back(net.process(ProcessId{i}).make_behavior());
  }
  job_counts_.assign(net.process_count(), 0);
  for (const auto& [c, samples] : inputs) {
    if (net.channel(c).scope != ChannelScope::kExternalInput) {
      throw std::invalid_argument("input script bound to non-input channel '" +
                                  net.channel(c).name + "'");
    }
    (void)samples;
  }
}

std::int64_t ExecutionState::run_job(ProcessId p, Time now) {
  (void)net_->process(p);  // range check
  const std::int64_t k = ++job_counts_[p.value()];
  if (trace_ != nullptr) {
    trace_->push(JobStartAction{p, k});
  }
  JobContext ctx(*this, p, k, now);
  behaviors_[p.value()]->on_job(ctx);
  if (trace_ != nullptr) {
    trace_->push(JobEndAction{p, k});
  }
  return k;
}

void ExecutionState::advance_time(Time t) {
  if (time_started_ && t < current_time_) {
    throw std::logic_error("execution time moved backwards");
  }
  if (trace_ != nullptr && (!time_started_ || t != current_time_)) {
    trace_->push(WaitAction{t});
  }
  current_time_ = t;
  time_started_ = true;
}

Value ExecutionState::do_read(ProcessId p, std::int64_t k, ChannelId c) {
  const ChannelDecl& decl = net_->channel(c);
  Value v;
  switch (decl.scope) {
    case ChannelScope::kInternal:
      if (decl.reader != p) {
        throw std::logic_error("process '" + net_->process(p).name +
                               "' is not the reader of channel '" + decl.name + "'");
      }
      v = channels_[c.value()].read();
      break;
    case ChannelScope::kExternalInput: {
      if (decl.reader != p) {
        throw std::logic_error("process '" + net_->process(p).name +
                               "' is not the reader of input '" + decl.name + "'");
      }
      // x?[k]I: sample k (1-based) of the input script.
      const auto it = inputs_->find(c);
      if (it == inputs_->end() ||
          static_cast<std::size_t>(k) > it->second.size() || k < 1) {
        v = no_data();
      } else {
        v = it->second[static_cast<std::size_t>(k - 1)];
      }
      break;
    }
    case ChannelScope::kExternalOutput:
      throw std::logic_error("reading from external output channel '" + decl.name +
                             "'");
  }
  if (trace_ != nullptr) {
    trace_->push(ReadAction{p, k, c, v});
  }
  return v;
}

void ExecutionState::do_write(ProcessId p, std::int64_t k, Time now, ChannelId c,
                              Value v) {
  const ChannelDecl& decl = net_->channel(c);
  switch (decl.scope) {
    case ChannelScope::kInternal:
      if (decl.writer != p) {
        throw std::logic_error("process '" + net_->process(p).name +
                               "' is not the writer of channel '" + decl.name + "'");
      }
      channels_[c.value()].write(v);
      // Buffered channels are bounded: a correct schedule's buffer-reuse
      // precedence edges keep at most `capacity` tokens in flight. Trip
      // loudly if an execution order ever violates that.
      if (decl.is_buffered() &&
          channels_[c.value()].buffered() > static_cast<std::size_t>(decl.capacity)) {
        throw std::logic_error("buffered channel '" + decl.name +
                               "' overflowed its capacity of " +
                               std::to_string(decl.capacity));
      }
      break;
    case ChannelScope::kExternalOutput:
      if (decl.writer != p) {
        throw std::logic_error("process '" + net_->process(p).name +
                               "' is not the writer of output '" + decl.name + "'");
      }
      channels_[c.value()].write(v);
      outputs_[c].push_back(OutputSample{k, now, v});
      break;
    case ChannelScope::kExternalInput:
      throw std::logic_error("writing to external input channel '" + decl.name + "'");
  }
  if (trace_ != nullptr) {
    trace_->push(WriteAction{p, k, c, std::move(v)});
  }
}

ExecutionHistories ExecutionState::histories() const& {
  ExecutionHistories h;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (!channels_[i].history().empty()) {
      h.channel_writes.emplace(ChannelId{i}, channels_[i].history());
    }
  }
  h.output_samples = outputs_;
  return h;
}

ExecutionHistories ExecutionState::histories() && {
  ExecutionHistories h;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (!channels_[i].history().empty()) {
      h.channel_writes.emplace(ChannelId{i}, std::move(channels_[i]).history());
    }
  }
  h.output_samples = std::move(outputs_);
  return h;
}

}  // namespace fppn
