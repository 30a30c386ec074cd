// Gantt-chart renderers for timed traces (Fig. 6 style): one row per
// processor plus a "RT" row for runtime-overhead spans, in ASCII for the
// terminal.
#pragma once

#include <cstdint>
#include <string>

#include "sim/timed_trace.hpp"

namespace fppn {

struct GanttOptions {
  std::size_t columns = 110;        ///< chart width in characters
  Time from;                        ///< left edge (default 0)
  std::optional<Time> to;           ///< right edge (default trace end)
  bool show_overhead_row = true;    ///< render overhead spans as an extra row
  bool mark_misses = true;          ///< '!' markers under the axis
};

/// ASCII chart; `processors` fixes the number of rows (processors with no
/// events still get a row).
[[nodiscard]] std::string render_gantt(const TimedTrace& trace, std::int64_t processors,
                                       const GanttOptions& opts = {});

}  // namespace fppn
