#include "fppn/channel.hpp"

namespace fppn {

std::string to_string(ChannelKind k) {
  switch (k) {
    case ChannelKind::kFifo:
      return "fifo";
    case ChannelKind::kBlackboard:
      return "blackboard";
  }
  return "?";
}

Value ChannelRuntime::read() {
  if (kind_ == ChannelKind::kFifo) {
    return head_ < history_.size() ? history_[head_++] : no_data();
  }
  return peek();
}

void ChannelRuntime::write(Value v) { history_.push_back(std::move(v)); }

Value ChannelRuntime::peek() const {
  if (kind_ == ChannelKind::kFifo) {
    return head_ < history_.size() ? history_[head_] : no_data();
  }
  return history_.empty() ? no_data() : history_.back();
}

std::size_t ChannelRuntime::buffered() const noexcept {
  if (kind_ == ChannelKind::kFifo) {
    return history_.size() - head_;
  }
  return history_.empty() ? 0 : 1;
}

}  // namespace fppn
