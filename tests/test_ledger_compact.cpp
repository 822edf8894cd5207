// Regression tests for store-and-forward edge-ledger compaction
// (EdgeLedger / Processor::compact_edge_ledgers / compact_edge_ledgers(ctx)):
// a long unbarriered phase must no longer grow ledgers O(messages), and
// compaction must be invisible in model time — bit-identical clocks.
#include <gtest/gtest.h>

#include <cstddef>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

constexpr int kIters = 200;
constexpr int kCompactEvery = 10;

MachineConfig sf_ring_config() {
  MachineConfig cfg;
  cfg.link_contention = LinkContention::kStoreForward;
  cfg.topology = Topology::kRing;
  return cfg;
}

/// One long phase with no sync_clocks: every rank exchanges with its ring
/// antipode (2 hops on a 4-ring, so every receive resolves an interior edge
/// into the receiver's ledger) and advances its clock every iteration —
/// compaction's floor is the minimum clock, so an idle rank would pin it.
void antipode_phase(Context& ctx, bool compact) {
  const int partner = (ctx.rank() + 2) % ctx.nprocs();
  for (int iter = 0; iter < kIters; ++iter) {
    ctx.charge_seconds(1.0e-4);
    ctx.send<int>(partner, 7, iter);
    KALI_CHECK(ctx.recv<int>(partner, 7) == iter, "bad payload");
    if (compact && (iter + 1) % kCompactEvery == 0) {
      compact_edge_ledgers(ctx);
    }
  }
}

std::size_t total_ledger_entries(Machine& m) {
  std::size_t n = 0;
  for (int r = 0; r < m.size(); ++r) {
    n += m.proc(r).edge_ledger_entries();
  }
  return n;
}

TEST(LedgerCompact, UnbarrieredPhaseNoLongerGrowsLedgersWithMessageCount) {
  Machine plain(4, sf_ring_config());
  plain.run([](Context& ctx) { antipode_phase(ctx, /*compact=*/false); });
  // Uncompacted baseline: one interior-edge reservation per receive sticks
  // around for the whole phase.
  EXPECT_GE(total_ledger_entries(plain), static_cast<std::size_t>(4 * kIters));

  Machine compacted(4, sf_ring_config());
  compacted.run([](Context& ctx) { antipode_phase(ctx, /*compact=*/true); });
  // Compacted: bounded by the compaction cadence, independent of kIters.
  EXPECT_LE(total_ledger_entries(compacted),
            static_cast<std::size_t>(4 * 2 * kCompactEvery));

  // Zero model cost: clocks, waits, and message counts are bit-identical.
  const MachineStats a = plain.stats();
  const MachineStats b = compacted.stats();
  EXPECT_EQ(a.clocks, b.clocks);
  for (std::size_t i = 0; i < a.per_proc.size(); ++i) {
    EXPECT_EQ(a.per_proc[i].edge_wait_time, b.per_proc[i].edge_wait_time);
    EXPECT_EQ(a.per_proc[i].contended_msgs, b.per_proc[i].contended_msgs);
    EXPECT_EQ(a.per_proc[i].msgs_sent, b.per_proc[i].msgs_sent);
  }
}

TEST(LedgerCompact, CompactionFloorSurvivesQueuedMessages) {
  // A message sent before the quiesce but received after it must still
  // reserve its edges: the floor counts queued send_times, not just clocks.
  MachineConfig cfg = sf_ring_config();
  Machine m(4, cfg);
  m.run([](Context& ctx) {
    const int partner = (ctx.rank() + 2) % ctx.nprocs();
    // Everyone sends first, then compacts with all messages still queued,
    // then receives.  The receives' reservations are keyed by pre-quiesce
    // send_times, which must therefore stay at or above the floor.
    for (int iter = 0; iter < 5; ++iter) {
      ctx.charge_seconds(1.0e-4);
      ctx.send<int>(partner, 7, iter);
    }
    compact_edge_ledgers(ctx);
    for (int iter = 0; iter < 5; ++iter) {
      KALI_CHECK(ctx.recv<int>(partner, 7) == iter, "bad payload");
    }
  });
  EXPECT_EQ(m.stats().totals().msgs_recv, 20u);
}

TEST(LedgerCompact, SyncClocksStillClearsEverything) {
  // The barrier path is the stronger reset: floors and collapsed scalars
  // go too, so post-barrier phases start from a clean slate.
  Machine m(4, sf_ring_config());
  m.run([](Context& ctx) {
    antipode_phase(ctx, /*compact=*/true);
    std::vector<int> ranks(static_cast<std::size_t>(ctx.nprocs()));
    for (int i = 0; i < ctx.nprocs(); ++i) {
      ranks[static_cast<std::size_t>(i)] = i;
    }
    sync_clocks(ctx, Group(std::move(ranks), ctx.rank()));
  });
  EXPECT_EQ(total_ledger_entries(m), 0u);
}

}  // namespace
}  // namespace kali
