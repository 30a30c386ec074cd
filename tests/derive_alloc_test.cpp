// Allocation guard for task-graph derivation. This file replaces the
// global operator new/delete with counting ones, so it is a test binary
// of its own.
//
// A served request derives its task graph before the cache can answer,
// so derivation's heap traffic is paid on every hot request. The
// adjacency is CSR (one offsets and one id array per direction) and the
// reduction's scratch is a fixed set of arrays, so deriving a graph
// allocates a constant number of blocks plus one per job name too long
// for the small-string buffer; freeing it releases as many.
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "apps/fms.hpp"
#include "taskgraph/derivation.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_frees{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p != nullptr) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
  }
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace fppn {
namespace {

/// Blocks one derivation may allocate besides its long job names: the
/// per-process and per-channel tables (the FP' digraph, the partner
/// lists, the channel maps), the edge list, the reduction's scratch
/// arrays and the graph's job and CSR arrays. The paper FMS (812 jobs)
/// takes 145; one adjacency list per job and direction would add ~1600.
constexpr std::size_t kFixedAllocations = 200;

/// Jobs whose name does not fit the small-string buffer: each costs one
/// allocation to build and one free to destroy.
std::size_t long_names(const TaskGraph& tg) {
  const std::size_t inline_capacity = std::string().capacity();
  std::size_t count = 0;
  for (const Job& job : tg.jobs()) {
    count += job.name.size() > inline_capacity ? 1 : 0;
  }
  return count;
}

struct Counted {
  std::size_t allocations = 0;  ///< during derive_task_graph
  std::size_t frees = 0;        ///< during the result's destruction
  std::size_t long_names = 0;
  std::size_t jobs = 0;
};

Counted derive_counted(const apps::FmsApp& app, int unfolding) {
  DerivationOptions opts;
  opts.unfolding = unfolding;
  const WcetMap wcets = app.default_wcets();
  std::optional<DerivedTaskGraph> derived;
  Counted out;
  const std::size_t allocations_before = g_allocations.load();
  derived.emplace(derive_task_graph(app.net, wcets, opts));
  out.allocations = g_allocations.load() - allocations_before;
  out.long_names = long_names(derived->graph);
  out.jobs = derived->graph.job_count();
  const std::size_t frees_before = g_frees.load();
  derived.reset();
  out.frees = g_frees.load() - frees_before;
  return out;
}

TEST(DeriveAlloc, PaperFmsAllocatesAConstantNumberOfBlocksBesidesLongNames) {
  const apps::FmsApp app = apps::build_fms(true);
  (void)derive_counted(app, 1);  // first use of any lazily built state
  const Counted fms = derive_counted(app, 1);
  ASSERT_EQ(fms.jobs, 812u);
  EXPECT_LE(fms.allocations, fms.long_names + kFixedAllocations)
      << fms.allocations << " allocations, " << fms.long_names << " long names";
  EXPECT_LE(fms.frees, fms.long_names + kFixedAllocations)
      << fms.frees << " frees, " << fms.long_names << " long names";
}

TEST(DeriveAlloc, FixedAllocationsDoNotGrowWithTheFrame) {
  // Unfolding the frame doubles (and quadruples) every job and edge
  // count; the blocks besides the names stay the same.
  const apps::FmsApp app = apps::build_fms(true);
  (void)derive_counted(app, 1);
  const Counted one = derive_counted(app, 1);
  for (const int unfolding : {2, 4}) {
    const Counted more = derive_counted(app, unfolding);
    ASSERT_EQ(more.jobs, one.jobs * static_cast<std::size_t>(unfolding));
    EXPECT_EQ(more.allocations - more.long_names, one.allocations - one.long_names)
        << "unfolding " << unfolding;
    EXPECT_EQ(more.frees - more.long_names, one.frees - one.long_names)
        << "unfolding " << unfolding;
  }
}

}  // namespace
}  // namespace fppn
