// Resource bound of the store-and-forward edge ledgers (Processor::
// edge_ledger): a ledger holds exactly one entry per interior-edge
// resolution since the last sync_clocks, and that barrier empties it.
// Nothing else prunes a ledger, so this is its whole memory bound.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

constexpr int kIters = 200;

MachineConfig sf_ring_config() {
  MachineConfig cfg;
  cfg.link_contention = LinkContention::kStoreForward;
  cfg.topology = Topology::kRing;
  return cfg;
}

/// One unbarriered phase: every rank exchanges with its ring antipode
/// (2 hops on a 4-ring, so every receive resolves exactly one interior
/// edge into the receiver's ledger) and computes every iteration.
void antipode_phase(Context& ctx) {
  const int partner = (ctx.rank() + 2) % ctx.nprocs();
  for (int iter = 0; iter < kIters; ++iter) {
    ctx.compute(100.0);
    ctx.send<int>(partner, 7, iter);
    KALI_CHECK(ctx.recv<int>(partner, 7) == iter, "bad payload");
  }
}

std::size_t ledger_entries(Processor& p) {
  std::size_t n = 0;
  for (const auto& [edge, ledger] : p.edge_ledger()) {
    n += ledger.size();
  }
  return n;
}

std::size_t total_ledger_entries(Machine& m) {
  std::size_t n = 0;
  for (int r = 0; r < m.size(); ++r) {
    n += ledger_entries(m.proc(r));
  }
  return n;
}

TEST(EdgeLedger, UnbarrieredPhaseHoldsOneEntryPerInteriorEdgeResolution) {
  Machine m(4, sf_ring_config());
  m.run(antipode_phase);
  EXPECT_EQ(total_ledger_entries(m), static_cast<std::size_t>(4 * kIters));
}

TEST(EdgeLedger, SyncClocksEmptiesEveryLedger) {
  Machine m(4, sf_ring_config());
  m.run([](Context& ctx) {
    antipode_phase(ctx);
    // A rank reads only its own ledger inside the run.
    EXPECT_EQ(ledger_entries(ctx.proc()), static_cast<std::size_t>(kIters));
    sync_clocks(ctx, ProcView::grid1(ctx.nprocs()));
    EXPECT_EQ(ledger_entries(ctx.proc()), 0u);
  });
  EXPECT_EQ(total_ledger_entries(m), 0u);
}

}  // namespace
}  // namespace kali
