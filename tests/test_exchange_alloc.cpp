// Host-cost guard for the one exchange path: a steady-state face-mode
// exchange_halo() (exchange_halo_begin().finish()) must make no more heap
// allocations than the blocking send/receive loops it replaced.  Counted by
// a replacement operator new; with one simulator worker the fibers run in a
// fixed order, so the count is deterministic.
//
// The shape is an mg3 plane solve's: 16 ranks as a 4 x 4 grid, each column
// holding its own 65 x 65 (star, block) plane with one ghost row per side.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "runtime/dist_array.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

TEST(ExchangeAlloc, SteadyStateHaloAllocatesNoMoreThanBlockingLoops) {
  // The difference of two runs cancels the machine and array set-up; what
  // is left is the steady-state cost of one exchange on each of 16 ranks.
  constexpr int kShort = 50;
  constexpr int kLong = 150;
  const std::uint64_t extra = allocs_of_run(kLong) - allocs_of_run(kShort);
  const double per_exchange =
      static_cast<double>(extra) / (16.0 * (kLong - kShort));
  RecordProperty("allocs_per_exchange_per_rank", std::to_string(per_exchange));
  // The blocking send/receive loops made 11.17375 per exchange per rank on
  // this shape, most of them the pack buffer growing element by element.
  // The one path makes 4.17375: one pack buffer, per face one payload and
  // one typed receive copy, and the mailbox's queue blocks.
  EXPECT_LE(per_exchange, 11.17375);
}

}  // namespace
}  // namespace kali
