#include "sim/timed_trace.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

namespace fppn {

std::string_view TimedTrace::intern(std::string_view text) {
  if (text.empty()) {
    return {};
  }
  if (labels_.empty() || labels_.back().capacity - labels_.back().used < text.size()) {
    // Each new block doubles the last, so owns() searches few blocks.
    constexpr std::size_t kFirstBlock = 1024;
    const std::size_t capacity = std::max(
        text.size(), labels_.empty() ? kFirstBlock : 2 * labels_.back().capacity);
    labels_.push_back(LabelBlock{std::make_unique<char[]>(capacity), capacity, 0});
  }
  LabelBlock& block = labels_.back();
  char* const out = block.bytes.get() + block.used;
  std::copy(text.begin(), text.end(), out);
  block.used += text.size();
  return {out, text.size()};
}

void TimedTrace::add(TraceEvent e) {
  if (!owns(e.label)) {
    e.label = intern(e.label);
  }
  events_.push_back(e);
}

bool TimedTrace::owns(std::string_view label) const {
  // std::less orders pointers into unrelated arrays too.
  const std::less<const char*> before;
  return std::any_of(labels_.rbegin(), labels_.rend(), [&](const LabelBlock& block) {
    const char* const begin = block.bytes.get();
    return !before(label.data(), begin) &&
           !before(begin + block.used, label.data() + label.size());
  });
}

std::vector<TraceEvent> TimedTrace::of_kind(TraceEventKind k) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.kind == k) {
      out.push_back(e);
    }
  }
  return out;
}

std::size_t TimedTrace::deadline_miss_count() const {
  return of_kind(TraceEventKind::kDeadlineMiss).size();
}

std::size_t TimedTrace::executed_job_count() const {
  return of_kind(TraceEventKind::kJobRun).size();
}

std::size_t TimedTrace::false_skip_count() const {
  return of_kind(TraceEventKind::kFalseSkip).size();
}

Time TimedTrace::span_end() const {
  Time last;
  for (const TraceEvent& e : events_) {
    last = std::max(last, e.end.value_or(e.time));
  }
  return last;
}

std::string TimedTrace::summary() const {
  std::ostringstream os;
  os << executed_job_count() << " jobs executed, " << false_skip_count()
     << " false skips, " << deadline_miss_count() << " deadline miss(es), span "
     << span_end().to_string() << " ms";
  return os.str();
}

}  // namespace fppn
