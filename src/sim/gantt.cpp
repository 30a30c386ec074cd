#include "sim/gantt.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace fppn {
namespace {

struct Window {
  double t0;
  double t1;
  std::size_t cols;

  [[nodiscard]] std::size_t col(double t) const {
    if (t <= t0) {
      return 0;
    }
    if (t >= t1) {
      return cols;
    }
    return static_cast<std::size_t>((t - t0) / (t1 - t0) * static_cast<double>(cols));
  }
};

Window make_window(const TimedTrace& trace, const GanttOptions& opts) {
  const double t0 = opts.from.to_double_ms();
  const double t1 =
      opts.to.has_value() ? opts.to->to_double_ms() : trace.span_end().to_double_ms();
  return Window{t0, std::max(t1, t0 + 1.0), opts.columns};
}

void paint(std::string& row, std::size_t c0, std::size_t c1, const std::string& name) {
  if (c1 <= c0) {
    c1 = c0 + 1;
  }
  for (std::size_t c = c0; c < c1 && c < row.size(); ++c) {
    const std::size_t off = c - c0;
    row[c] = off < name.size() ? name[off] : '#';
  }
  if (c1 - 1 < row.size()) {
    row[c1 - 1] = '|';
  }
}

}  // namespace

std::string render_gantt(const TimedTrace& trace, std::int64_t processors,
                         const GanttOptions& opts) {
  const Window w = make_window(trace, opts);
  std::vector<std::string> rows(static_cast<std::size_t>(processors),
                                std::string(w.cols + 1, '.'));
  std::string rt_row(w.cols + 1, '.');
  std::string miss_row(w.cols + 1, ' ');
  bool any_overhead = false;
  bool any_miss = false;

  for (const TraceEvent& e : trace.events()) {
    const double start = e.time.to_double_ms();
    const double end = e.end.value_or(e.time).to_double_ms();
    switch (e.kind) {
      case TraceEventKind::kJobRun:
        if (e.processor.is_valid() &&
            e.processor.value() < rows.size()) {
          paint(rows[e.processor.value()], w.col(start), w.col(end), e.label);
        }
        break;
      case TraceEventKind::kOverhead:
        paint(rt_row, w.col(start), w.col(end), "RT:" + e.label);
        any_overhead = true;
        break;
      case TraceEventKind::kFrameStart:
        for (auto& row : rows) {
          const std::size_t c = w.col(start);
          if (c < row.size() && row[c] == '.') {
            row[c] = ':';
          }
        }
        break;
      case TraceEventKind::kDeadlineMiss: {
        const std::size_t c = w.col(start);
        if (c < miss_row.size()) {
          miss_row[c] = '!';
        }
        any_miss = true;
        break;
      }
      case TraceEventKind::kFalseSkip:
        break;  // not rendered in ASCII
    }
  }

  std::ostringstream os;
  for (std::size_t m = 0; m < rows.size(); ++m) {
    os << "M" << (m + 1) << "  |" << rows[m] << "\n";
  }
  if (opts.show_overhead_row && any_overhead) {
    os << "RT  |" << rt_row << "\n";
  }
  if (opts.mark_misses && any_miss) {
    os << "miss " << miss_row << "\n";
  }
  os << "     " << w.t0;
  std::ostringstream endl_;
  endl_ << w.t1 << " ms";
  const std::string tail = endl_.str();
  std::ostringstream head;
  head << w.t0;
  const std::size_t used = head.str().size();
  os << std::string(w.cols > used + tail.size() ? w.cols - used - tail.size() + 1 : 1,
                    ' ')
     << tail << "\n";
  return os.str();
}

}  // namespace fppn
