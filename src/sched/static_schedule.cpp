#include "sched/static_schedule.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "taskgraph/compiled_graph.hpp"

namespace fppn {

std::string to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kUnscheduled:
      return "unscheduled";
    case ViolationKind::kArrival:
      return "arrival";
    case ViolationKind::kDeadline:
      return "deadline";
    case ViolationKind::kPrecedence:
      return "precedence";
    case ViolationKind::kMutex:
      return "mutex";
  }
  return "?";
}

std::string Violation::detail(const TaskGraph& tg) const {
  switch (kind) {
    case ViolationKind::kUnscheduled:
      return {};
    case ViolationKind::kArrival:
      return "starts " + when.to_string() + " < A=" + tg.job(job).arrival.to_string();
    case ViolationKind::kDeadline:
      return "ends " + when.to_string() + " > D=" + tg.job(job).deadline.to_string();
    case ViolationKind::kPrecedence:
      return "pred ends " + when.to_string() + " > succ starts " + bound.to_string();
    case ViolationKind::kMutex:
      return "overlap on processor " + std::to_string(processor);
  }
  return {};
}

std::string FeasibilityReport::to_string(const TaskGraph& tg) const {
  if (feasible()) {
    return "feasible";
  }
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const Violation& v : violations) {
    os << "\n  [" << fppn::to_string(v.kind) << "] " << tg.job(v.job).name;
    if (v.other.has_value()) {
      os << " vs " << tg.job(*v.other).name;
    }
    const std::string d = v.detail(tg);
    if (!d.empty()) {
      os << ": " << d;
    }
  }
  return os.str();
}

StaticSchedule::StaticSchedule(std::size_t job_count, std::int64_t processors)
    : placements_(job_count), processors_(processors) {
  if (processors < 1) {
    throw std::invalid_argument("schedule needs at least one processor");
  }
}

void StaticSchedule::place(JobId job, ProcessorId proc, Time start) {
  if (!job.is_valid() || job.value() >= placements_.size()) {
    throw std::invalid_argument("schedule: job id out of range");
  }
  if (!proc.is_valid() || static_cast<std::int64_t>(proc.value()) >= processors_) {
    throw std::invalid_argument("schedule: processor id out of range");
  }
  placements_[job.value()] = Placement{proc, start};
}

bool StaticSchedule::is_placed(JobId job) const {
  return job.is_valid() && job.value() < placements_.size() &&
         placements_[job.value()].has_value();
}

const Placement& StaticSchedule::placement(JobId job) const {
  if (!is_placed(job)) {
    throw std::logic_error("schedule: job not placed");
  }
  return *placements_[job.value()];
}

std::vector<std::vector<JobId>> StaticSchedule::per_processor_order() const {
  std::vector<std::vector<JobId>> order(static_cast<std::size_t>(processors_));
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (placements_[i].has_value()) {
      order[placements_[i]->processor.value()].push_back(JobId(i));
    }
  }
  for (auto& jobs : order) {
    std::sort(jobs.begin(), jobs.end(), [this](JobId a, JobId b) {
      const Time sa = placements_[a.value()]->start;
      const Time sb = placements_[b.value()]->start;
      if (sa != sb) {
        return sa < sb;
      }
      return a < b;
    });
  }
  return order;
}

Time StaticSchedule::makespan(const TaskGraph& tg) const {
  Time last;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (placements_[i].has_value()) {
      last = std::max(last, end(JobId(i), tg));
    }
  }
  return last;
}

std::vector<Duration> StaticSchedule::busy_time(const TaskGraph& tg) const {
  std::vector<Duration> busy(static_cast<std::size_t>(processors_));
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (placements_[i].has_value()) {
      busy[placements_[i]->processor.value()] += tg.job(JobId(i)).wcet;
    }
  }
  return busy;
}

template <class OnViolation>
void StaticSchedule::walk_violations(const TaskGraph& tg, OnViolation&& on) const {
  const std::size_t n = tg.job_count();
  for (std::size_t i = 0; i < n; ++i) {
    const JobId id(i);
    if (!is_placed(id)) {
      on(Violation{ViolationKind::kUnscheduled, id, std::nullopt, {}, {}, -1});
      continue;
    }
    const Job& j = tg.job(id);
    const Time s = start(id);
    const Time e = end(id, tg);
    if (s < j.arrival) {
      Violation v{ViolationKind::kArrival, id, std::nullopt, {}, {}, -1};
      v.when = s;
      on(std::move(v));
    }
    if (e > j.deadline) {
      Violation v{ViolationKind::kDeadline, id, std::nullopt, {}, {}, -1};
      v.when = e;
      on(std::move(v));
    }
  }
  // Precedence: e_i <= s_j for every edge, in (from, insertion) order —
  // the same order Digraph::edges() documents, via the adjacency mirrors.
  for (std::size_t i = 0; i < n; ++i) {
    const JobId a(i);
    if (!is_placed(a)) {
      continue;  // already reported as unscheduled
    }
    const Time e = end(a, tg);
    for (const JobId b : tg.successors(a)) {
      if (!is_placed(b)) {
        continue;
      }
      if (e > start(b)) {
        Violation v{ViolationKind::kPrecedence, a, b, {}, {}, -1};
        v.when = e;
        v.bound = start(b);
        on(std::move(v));
      }
    }
  }
  // Mutual exclusion: adjacent pairs in one flat (processor, start, job)
  // sort — the identical pairs, in the identical order, that the
  // per_processor_order-based scan would visit, without its
  // per-processor vectors.
  std::vector<std::uint32_t> placed;
  placed.reserve(placements_.size());
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (placements_[i].has_value()) {
      placed.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::sort(placed.begin(), placed.end(), [this](std::uint32_t a, std::uint32_t b) {
    const Placement& pa = *placements_[a];
    const Placement& pb = *placements_[b];
    if (pa.processor.value() != pb.processor.value()) {
      return pa.processor.value() < pb.processor.value();
    }
    if (pa.start != pb.start) {
      return pa.start < pb.start;
    }
    return a < b;
  });
  for (std::size_t i = 1; i < placed.size(); ++i) {
    const JobId prev(placed[i - 1]);
    const JobId cur(placed[i]);
    if (placement(prev).processor == placement(cur).processor &&
        end(prev, tg) > start(cur)) {
      Violation v{ViolationKind::kMutex, prev, cur, {}, {}, -1};
      v.processor = static_cast<std::int64_t>(placement(prev).processor.value());
      on(std::move(v));
    }
  }
}

FeasibilityReport StaticSchedule::check_feasibility(const TaskGraph& tg) const {
  FeasibilityReport report;
  walk_violations(tg, [&report](Violation&& v) {
    report.violations.push_back(std::move(v));
  });
  return report;
}

ViolationCounts StaticSchedule::count_violations(const TaskGraph& tg) const {
  ViolationCounts counts;
  walk_violations(tg, [&counts](Violation&& v) {
    switch (v.kind) {
      case ViolationKind::kUnscheduled: ++counts.unscheduled; break;
      case ViolationKind::kArrival: ++counts.arrival; break;
      case ViolationKind::kDeadline: ++counts.deadline; break;
      case ViolationKind::kPrecedence: ++counts.precedence; break;
      case ViolationKind::kMutex: ++counts.mutex; break;
    }
  });
  return counts;
}

std::optional<ScheduleScore> StaticSchedule::score_on_ticks(
    const CompiledTaskGraph& view) const {
  const std::size_t n = view.job_count();
  if (!view.has_ticks() || placements_.size() != n) {
    return std::nullopt;
  }
  const std::vector<std::int64_t>& arrival = view.arrival_ticks();
  const std::vector<std::int64_t>& deadline = view.deadline_ticks();
  const std::vector<std::int64_t>& wcet = view.wcet_ticks();
  const std::vector<std::uint32_t>& succ_offsets = view.succ_offsets();
  const std::vector<std::uint32_t>& succ_ids = view.succ_ids();

  // The walk of walk_violations, kind by kind, on ticks.
  ViolationCounts counts;
  std::vector<std::int64_t> start(n);
  std::vector<std::int64_t> finish(n);
  std::int64_t last = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!placements_[i].has_value()) {
      ++counts.unscheduled;
      continue;
    }
    const std::optional<std::int64_t> s = view.ticks_from_time(placements_[i]->start);
    if (!s || __builtin_add_overflow(*s, wcet[i], &finish[i])) {
      return std::nullopt;
    }
    start[i] = *s;
    if (start[i] < arrival[i]) {
      ++counts.arrival;
    }
    if (finish[i] > deadline[i]) {
      ++counts.deadline;
    }
    last = std::max(last, finish[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!placements_[i].has_value()) {
      continue;
    }
    for (std::uint32_t e = succ_offsets[i]; e < succ_offsets[i + 1]; ++e) {
      const std::uint32_t j = succ_ids[e];
      if (placements_[j].has_value() && finish[i] > start[j]) {
        ++counts.precedence;
      }
    }
  }
  // Mutex: adjacent pairs in one flat (processor, start, job) sort.
  std::vector<std::tuple<std::size_t, std::int64_t, std::uint32_t>> slots;
  slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (placements_[i].has_value()) {
      slots.emplace_back(placements_[i]->processor.value(), start[i],
                         static_cast<std::uint32_t>(i));
    }
  }
  std::sort(slots.begin(), slots.end());
  for (std::size_t k = 1; k < slots.size(); ++k) {
    const auto& [prev_processor, prev_start, prev_job] = slots[k - 1];
    const auto& [processor, start_tick, job] = slots[k];
    if (prev_processor == processor && finish[prev_job] > start_tick) {
      ++counts.mutex;
    }
  }
  return ScheduleScore{counts, view.time_from_ticks(last)};
}

std::string StaticSchedule::to_gantt(const TaskGraph& tg, std::size_t cols) const {
  const Time span = makespan(tg);
  if (span == Time() || cols < 10) {
    return "(empty schedule)\n";
  }
  std::ostringstream os;
  const double total = span.to_double_ms();
  const auto col_of = [&](const Time& t) {
    return static_cast<std::size_t>(t.to_double_ms() / total * static_cast<double>(cols));
  };
  const auto order = per_processor_order();
  for (std::size_t m = 0; m < order.size(); ++m) {
    std::string row(cols + 1, '.');
    for (const JobId id : order[m]) {
      const std::size_t c0 = col_of(start(id));
      const std::size_t c1 = std::max(c0 + 1, col_of(end(id, tg)));
      const std::string& name = tg.job(id).name;
      for (std::size_t c = c0; c < c1 && c < row.size(); ++c) {
        const std::size_t off = c - c0;
        row[c] = off < name.size() ? name[off] : '#';
      }
      if (c1 <= row.size() && c1 > c0) {
        row[c1 - 1] = '|';
      }
    }
    os << "M" << (m + 1) << " |" << row << "\n";
  }
  os << "    0";
  const std::string end_label = span.to_string() + " ms";
  os << std::string(cols > end_label.size() + 1 ? cols - end_label.size() + 1 : 1, ' ')
     << end_label << "\n";
  return os.str();
}

}  // namespace fppn
