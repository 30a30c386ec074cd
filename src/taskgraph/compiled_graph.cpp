#include "taskgraph/compiled_graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

namespace fppn {

namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// lcm(l, den) with overflow detection; returns false when it no longer
/// fits in int64.
bool lcm_into(std::int64_t& l, std::int64_t den) {
  const std::int64_t g = std::gcd(l, den);
  const std::int64_t reduced = l / g;
  if (reduced > kMax / den) {
    return false;
  }
  l = reduced * den;
  return true;
}

/// value.num() * (l / value.den()), or nullopt on overflow. Exact: den
/// divides l by construction.
std::optional<std::int64_t> to_ticks(const Rational& value, std::int64_t l) {
  const std::int64_t scale = l / value.den();
  const __int128 wide = static_cast<__int128>(value.num()) * scale;
  if (wide > kMax || wide < -static_cast<__int128>(kMax) - 1) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(wide);
}

}  // namespace

CompiledTaskGraph CompiledTaskGraph::compile(const TaskGraph& tg) {
  CompiledTaskGraph out;
  const std::size_t n = tg.job_count();
  out.n_ = n;

  out.arrival_.reserve(n);
  out.deadline_.reserve(n);
  out.wcet_.reserve(n);
  out.process_id_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Job& j = tg.job(JobId(i));
    out.arrival_.push_back(j.arrival);
    out.deadline_.push_back(j.deadline);
    out.wcet_.push_back(j.wcet);
    out.process_id_.push_back(j.process.value());
  }

  // CSR adjacency: the task graph's own arrays, in its deterministic
  // per-job edge order.
  out.pred_offsets_ = tg.pred_offsets();
  out.pred_ids_ = tg.pred_ids();
  out.succ_offsets_ = tg.succ_offsets();
  out.succ_ids_ = tg.succ_ids();
  if (n == 0) {
    out.pred_offsets_.assign(1, 0);
    out.succ_offsets_.assign(1, 0);
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (out.pred_offsets_[i + 1] == out.pred_offsets_[i]) {
      out.sources_by_arrival_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Acyclicity and a topological order: Kahn's algorithm from the
  // sources; a cycle leaves jobs that never reach zero remaining
  // predecessors, and then no order is kept.
  {
    std::vector<std::uint32_t> remaining(n);
    for (std::size_t i = 0; i < n; ++i) {
      remaining[i] = out.pred_offsets_[i + 1] - out.pred_offsets_[i];
    }
    std::vector<std::uint32_t> stack = out.sources_by_arrival_;
    out.topo_order_.reserve(n);
    while (!stack.empty()) {
      const std::uint32_t job = stack.back();
      stack.pop_back();
      out.topo_order_.push_back(job);
      for (std::uint32_t e = out.succ_offsets_[job]; e < out.succ_offsets_[job + 1]; ++e) {
        if (--remaining[out.succ_ids_[e]] == 0) {
          stack.push_back(out.succ_ids_[e]);
        }
      }
    }
    if (out.topo_order_.size() != n) {
      out.topo_order_ = {};
    }
  }
  std::sort(out.sources_by_arrival_.begin(), out.sources_by_arrival_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (out.arrival_[a] != out.arrival_[b]) {
                return out.arrival_[a] < out.arrival_[b];
              }
              return a < b;
            });

  // Tick timebase: common denominator of every rational in the graph,
  // with checked arithmetic throughout. Any overflow — in the lcm, in a
  // scaled value, or in the worst-case simulated makespan
  // (max arrival + total WCET) — disables ticks and leaves the exact
  // Rational arrays as the evaluator's timebase.
  std::int64_t l = 1;
  bool ok = true;
  for (std::size_t i = 0; i < n && ok; ++i) {
    ok = lcm_into(l, out.arrival_[i].value().den()) &&
         lcm_into(l, out.deadline_[i].value().den()) &&
         lcm_into(l, out.wcet_[i].value().den());
  }
  if (ok) {
    out.arrival_tick_.reserve(n);
    out.deadline_tick_.reserve(n);
    out.wcet_tick_.reserve(n);
    __int128 total_wcet = 0;
    __int128 max_arrival = 0;
    for (std::size_t i = 0; i < n && ok; ++i) {
      const auto a = to_ticks(out.arrival_[i].value(), l);
      const auto d = to_ticks(out.deadline_[i].value(), l);
      const auto c = to_ticks(out.wcet_[i].value(), l);
      if (!a || !d || !c) {
        ok = false;
        break;
      }
      out.arrival_tick_.push_back(*a);
      out.deadline_tick_.push_back(*d);
      out.wcet_tick_.push_back(*c);
      total_wcet += *c;
      max_arrival = std::max<__int128>(max_arrival, *a);
    }
    ok = ok && max_arrival + total_wcet <= kMax;
  }
  if (ok) {
    out.has_ticks_ = true;
    out.ticks_per_ms_ = l;
  } else {
    out.arrival_tick_.clear();
    out.deadline_tick_.clear();
    out.wcet_tick_.clear();
  }
  return out;
}

Time CompiledTaskGraph::time_from_ticks(std::int64_t ticks) const {
  return Time(Rational(ticks, ticks_per_ms_));
}

std::optional<std::int64_t> CompiledTaskGraph::ticks_from_time(const Time& t) const {
  const Rational& r = t.value();
  if (ticks_per_ms_ % r.den() != 0) {
    return std::nullopt;
  }
  return to_ticks(r, ticks_per_ms_);
}

}  // namespace fppn
