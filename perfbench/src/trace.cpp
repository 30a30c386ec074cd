#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

double ms_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::uint64_t Tracer::reserve_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t Tracer::record(std::string name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t op,
                             std::uint64_t parent, std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = id != 0 ? id : next_id_++;
  span.parent = parent;
  span.op = op;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  const auto inserted =
      thread_numbers_.emplace(std::this_thread::get_id(), thread_numbers_.size() + 1);
  span.thread = inserted.first->second;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::uint64_t, double> Tracer::self_times_ms() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, const Span*> by_id;
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    by_id[s.id] = &s;
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }
  std::map<std::uint64_t, double> self;
  for (const Span& s : all) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const Span* c : children[s.id]) {
      const Clock::time_point b = std::max(c->start, s.start);
      const Clock::time_point e = std::min(c->end, s.end);
      if (b < e) {
        covered.emplace_back(b, e);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [b, e] : covered) {
      const Clock::time_point from = std::max(b, reach);
      if (from < e) {
        covered_ms += ms_between(from, e);
        reach = e;
      }
    }
    self[s.id] = s.duration_ms() - covered_ms;
  }
  return self;
}

namespace {

/// JSON string literal for span names (ASCII names; quotes and
/// backslashes escaped for safety).
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  out << body;
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

}  // namespace

void Tracer::write(const std::string& trace_path, const std::string& summary_path) const {
  const std::vector<Span> all = spans();
  const std::map<std::uint64_t, double> self = self_times_ms();

  std::string trace = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const double ts_us = ms_between(epoch_, s.start) * 1000.0;
    trace += "{\"name\":" + quoted(s.name) + ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
             std::to_string(s.thread) + ",\"ts\":" + std::to_string(ts_us) +
             ",\"dur\":" + std::to_string(s.duration_ms() * 1000.0) +
             ",\"args\":{\"id\":" + std::to_string(s.id) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"op\":" + std::to_string(s.op) + "}}";
    trace += i + 1 < all.size() ? ",\n" : "\n";
  }
  trace += "]}\n";
  write_file(trace_path, trace);

  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& s : all) {
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_ms += s.duration_ms();
    t.self_ms += self.at(s.id);
  }
  std::string summary = "{\n";
  std::size_t n = 0;
  for (const auto& [name, t] : by_name) {
    summary += "  " + quoted(name) + ": {\"count\": " + std::to_string(t.count) +
               ", \"total_ms\": " + std::to_string(t.total_ms) +
               ", \"self_ms\": " + std::to_string(t.self_ms) + "}";
    summary += ++n < by_name.size() ? ",\n" : "\n";
  }
  summary += "}\n";
  write_file(summary_path, summary);
}

}  // namespace perfbench
