// Host-cost guard for the one exchange path: a steady-state
// exchange_halo() (exchange_halo_begin(corners).finish()) must make no more
// heap allocations than the blocking send/receive loops it replaced.
// Counted by a replacement operator new; with one simulator worker the
// fibers run in a fixed order, so the count is deterministic.
//
// The face-mode shape is an mg3 plane solve's: 16 ranks as a 4 x 4 grid,
// each column holding its own 65 x 65 (star, block) plane with one ghost
// row per side.  The corner-mode shape is a 9-point stencil's copy-in: a
// 64 x 64 (block, block) array on the 4 x 4 grid with one ghost cell per
// side.
//
// The same counter, in bytes, guards the collectives' process sets: a
// reduction over an array's view, timed by a PhaseTimer, must allocate no
// more bytes per message on 1024 ranks than on 64 — a view is O(1)
// arithmetic, never a copied member list.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "machine/measure.hpp"
#include "runtime/dist_array.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

}  // namespace

// All kept out of line: inlined into a caller, GCC pairs malloc() with
// operator delete (or free() with operator new) and warns of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// The nothrow form (std::stable_sort's temporary buffer) must come from
// malloc() too, since the operator delete below frees it; libstdc++'s own
// routes through the counting operator new above, a sanitizer's does not.
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace kali {
namespace {

/// Heap allocations of a whole run that does `exchanges` plane halos.
std::uint64_t allocs_of_run(int exchanges) {
  MachineConfig cfg;
  cfg.sim_workers = 1;
  Machine m(16, cfg);
  const std::uint64_t before = g_allocs.load();
  m.run([&](Context& ctx) {
    const ProcView column = ProcView::grid2(4, 4).fix(1, ctx.rank() % 4);
    DistArray2<double> u(ctx, column, {65, 65},
                         {DimDist::star(), DimDist::block_dist()}, {0, 1});
    u.fill([](std::array<int, 2> g) { return g[0] + 0.5 * g[1]; });
    for (int k = 0; k < exchanges; ++k) {
      u.exchange_halo();
    }
  });
  return g_allocs.load() - before;
}

/// Heap allocations of a whole run that does `exchanges` corner halos.
std::uint64_t corner_allocs_of_run(int exchanges) {
  MachineConfig cfg;
  cfg.sim_workers = 1;
  Machine m(16, cfg);
  const std::uint64_t before = g_allocs.load();
  m.run([&](Context& ctx) {
    DistArray2<double> u(ctx, ProcView::grid2(4, 4), {64, 64},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {1, 1});
    u.fill([](std::array<int, 2> g) { return g[0] + 0.5 * g[1]; });
    for (int k = 0; k < exchanges; ++k) {
      u.exchange_halo(HaloCorners::kYes);
    }
  });
  return g_allocs.load() - before;
}

/// Steady-state allocations of one exchange on one of the 16 ranks: the
/// difference of two runs cancels the machine and array set-up.
template <class Run>
double allocs_per_exchange(Run run) {
  constexpr int kShort = 50;
  constexpr int kLong = 150;
  const std::uint64_t extra = run(kLong) - run(kShort);
  return static_cast<double>(extra) / (16.0 * (kLong - kShort));
}

TEST(ExchangeAlloc, SteadyStateHaloAllocatesNoMoreThanBlockingLoops) {
  const double per_exchange = allocs_per_exchange(allocs_of_run);
  RecordProperty("allocs_per_exchange_per_rank", std::to_string(per_exchange));
  // The blocking send/receive loops made 11.17375 per exchange per rank on
  // this shape, most of them the pack buffer growing element by element.
  // The one path makes 10.17125: the planner's two flat piece lists and
  // their two per-peer run lists, the receive lanes, the unpack closure,
  // one pack buffer, per face one payload and one typed receive copy, and
  // the mailbox's queue blocks.
  EXPECT_LE(per_exchange, 11.17375);
}

TEST(ExchangeAlloc, SteadyStateCornerHaloAllocatesNoMoreThanBlockingLoops) {
  const double per_exchange = allocs_per_exchange(corner_allocs_of_run);
  RecordProperty("allocs_per_exchange_per_rank", std::to_string(per_exchange));
  // The blocking corner loop made 48.835625 per exchange per rank on this
  // shape, and a planner with one piece vector per peer 42.835625.  The
  // flat planner makes 21.335625: the face mode's fixed lists, the member
  // list and round_sort's two sort buffers that the round schedule needs,
  // and a payload and a typed receive copy per peer (up to eight).
  EXPECT_LE(per_exchange, 21.335625);
}

/// Heap bytes per message sent of timed allreduce_sum rounds over a 1-D
/// array's view on `p` ranks.  The difference of two runs cancels the
/// machine and array set-up; dividing by messages rather than ranks
/// cancels the tree's (p - 1) / p messages per rank and round.
double reduction_bytes_per_msg(int p) {
  auto run = [p](int rounds) {
    MachineConfig cfg;
    cfg.sim_workers = 1;
    Machine m(p, cfg);
    const std::uint64_t before = g_bytes.load();
    m.run([&](Context& ctx) {
      DistArray1<double> a(ctx, ProcView::grid1(p), {p}, {DimDist::block_dist()});
      for (int k = 0; k < rounds; ++k) {
        PhaseTimer timer(ctx, a.view());
        (void)allreduce_sum(ctx, a.view(), a.at({ctx.rank()}));
        (void)timer.finish();
      }
    });
    return std::pair{g_bytes.load() - before, m.stats().totals().msgs_sent};
  };
  const auto [short_bytes, short_msgs] = run(4);
  const auto [long_bytes, long_msgs] = run(12);
  return static_cast<double>(long_bytes - short_bytes) /
         static_cast<double>(long_msgs - short_msgs);
}

TEST(ExchangeAlloc, ViewReductionBytesDoNotGrowWithP) {
  const double small = reduction_bytes_per_msg(64);
  const double large = reduction_bytes_per_msg(1024);
  RecordProperty("bytes_per_msg_p64", std::to_string(small));
  RecordProperty("bytes_per_msg_p1024", std::to_string(large));
  // About 49 bytes per message at both sizes.  A process set that copied
  // its member list on every collective would add 4 * p bytes per rank and
  // call.
  EXPECT_LE(large, small);
}

}  // namespace
}  // namespace kali
