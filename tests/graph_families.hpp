// Graph-level input families for the evaluator/search differential
// suites: task graphs built directly, not derived from a network, so they
// hold what derivation rejects by design (zero-WCET jobs). Pure functions
// of the seed, platform-deterministic (drawn from gen::Rng). Only tests
// use them, so they live here rather than in the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/rng.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn::testing {

/// A layered DAG with fractional WCETs, random arrivals and forward
/// fan-out.
inline TaskGraph layered_task_graph(std::uint64_t seed) {
  gen::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::int64_t layers = rng.range(2, 6);
  const std::int64_t width = rng.range(2, 5);
  TaskGraph tg(Duration::ms(400));
  std::vector<std::vector<JobId>> by_layer;
  std::size_t idx = 0;
  for (std::int64_t l = 0; l < layers; ++l) {
    by_layer.emplace_back();
    for (std::int64_t w = 0; w < width; ++w) {
      Job job;
      job.process = ProcessId(idx);
      job.k = 1;
      job.arrival = Time(Rational(rng.range(0, 60)));
      job.wcet = Duration(Rational(rng.range(3, 40), rng.range(1, 7)));
      job.deadline = job.arrival + Duration(Rational(rng.range(40, 160)));
      job.name = "J" + std::to_string(idx);
      by_layer.back().push_back(tg.add_job(job));
      ++idx;
    }
  }
  for (std::int64_t l = 0; l + 1 < layers; ++l) {
    for (JobId from : by_layer[static_cast<std::size_t>(l)]) {
      const std::int64_t fan = rng.range(1, 3);
      for (std::int64_t f = 0; f < fan; ++f) {
        tg.add_edge(from,
                    rng.pick(by_layer[static_cast<std::size_t>(l + 1)]));
      }
    }
  }
  return tg;
}

/// Edge cases: zero-WCET jobs, all-identical jobs (tie storms),
/// tick-overflow denominators, trivial/antichain shapes.
inline TaskGraph edge_case_task_graph(std::uint64_t seed) {
  gen::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 1);
  const std::uint64_t variant = seed % 4;
  TaskGraph tg(Duration::ms(200));
  if (variant == 0) {
    // Zero-WCET jobs interleaved in a chain: instantaneous jobs must
    // still respect order, arrivals and tie-breaking.
    const std::int64_t n = rng.range(3, 8);
    JobId prev;
    for (std::int64_t i = 0; i < n; ++i) {
      Job job;
      job.process = ProcessId(static_cast<std::size_t>(i));
      job.arrival = Time(Rational(rng.range(0, 20)));
      job.wcet = rng.chance(1, 2) ? Duration::zero()
                                  : Duration(Rational(rng.range(1, 9)));
      job.deadline = job.arrival + Duration(Rational(rng.range(30, 90)));
      job.name = "Z" + std::to_string(i);
      const JobId id = tg.add_job(job);
      if (i > 0) {
        tg.add_edge(prev, id);
      }
      prev = id;
    }
  } else if (variant == 1) {
    // Identical jobs: every ordering decision is a tie.
    const std::int64_t n = rng.range(4, 10);
    for (std::int64_t i = 0; i < n; ++i) {
      Job job;
      job.process = ProcessId(static_cast<std::size_t>(i));
      job.arrival = Time::ms(10);
      job.wcet = Duration::ms(7);
      job.deadline = Time::ms(150);
      job.name = "T" + std::to_string(i);
      tg.add_job(job);
    }
  } else if (variant == 2) {
    // Large prime denominators: the int64 tick LCM overflows (product of
    // the three primes > 2^63), forcing the compiled graph's Rational
    // fallback. Same safety argument as the nearoverflow network family:
    // all WCETs share one prime, two deadlines carry the other two, so no
    // reachable sum mixes more than two primes.
    const std::int64_t n = rng.range(4, 8);
    JobId prev;
    for (std::int64_t i = 0; i < n; ++i) {
      Job job;
      job.process = ProcessId(static_cast<std::size_t>(i));
      job.arrival = Time(Rational(0));
      job.wcet = Duration(Rational(rng.range(1, 40), 4000037));
      job.deadline = Time::ms(rng.range(50, 200));
      if (i == 1) {
        job.deadline = job.deadline - Duration(Rational(1, 4000057));
      } else if (i == 2) {
        job.deadline = job.deadline - Duration(Rational(1, 4000117));
      }
      job.name = "O" + std::to_string(i);
      const JobId id = tg.add_job(job);
      if (i > 0 && rng.chance(2, 3)) {
        tg.add_edge(prev, id);
      }
      prev = id;
    }
  } else {
    // Degenerate shapes: a single job, or a wide antichain with no edges.
    if (rng.chance(1, 3)) {
      Job job;
      job.process = ProcessId(0);
      job.arrival = Time::ms(0);
      job.wcet = Duration::ms(rng.range(1, 20));
      job.deadline = Time::ms(100);
      job.name = "S0";
      tg.add_job(job);
    } else {
      const std::int64_t n = rng.range(6, 14);
      for (std::int64_t i = 0; i < n; ++i) {
        Job job;
        job.process = ProcessId(static_cast<std::size_t>(i));
        job.arrival = Time(Rational(rng.range(0, 15)));
        job.wcet = Duration(Rational(rng.range(1, 25), rng.range(1, 5)));
        job.deadline = job.arrival + Duration(Rational(rng.range(40, 120)));
        job.name = "A" + std::to_string(i);
        tg.add_job(job);
      }
    }
  }
  return tg;
}

}  // namespace fppn::testing
