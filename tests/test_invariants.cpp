// Death/regression tests for the KALI_CHECK_INVARIANTS build mode: each
// machine-layer invariant must actually fire on the violation it guards
// against, and must stay silent on legal programs.  Built without
// -DKALI_CHECK_INVARIANTS=ON the checks compile to no-ops, so every death
// test skips itself (the regression tests still run).
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "machine/message.hpp"
#include "machine/processor.hpp"
#include "runtime/dist_array.hpp"
#include "runtime/redistribute.hpp"
#include "runtime/remap.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

#if defined(KALI_CHECK_INVARIANTS)
constexpr bool kInvariantsOn = true;
#else
constexpr bool kInvariantsOn = false;
#endif

#define SKIP_WITHOUT_INVARIANTS()                                   \
  do {                                                              \
    if (!kInvariantsOn) {                                           \
      GTEST_SKIP() << "built without -DKALI_CHECK_INVARIANTS=ON";   \
    }                                                               \
  } while (0)

Group whole_machine(Context& ctx) {
  std::vector<int> ranks(static_cast<std::size_t>(ctx.nprocs()));
  for (int r = 0; r < ctx.nprocs(); ++r) {
    ranks[static_cast<std::size_t>(r)] = r;
  }
  return Group(ranks, ctx.rank());
}

// --- clock monotonicity ----------------------------------------------------

TEST(Invariants, ProcessorClockMayNotMoveBackwards) {
  SKIP_WITHOUT_INVARIANTS();
  Processor p(0);
  p.set_clock(5.0);
  p.set_clock(5.0);  // equal is legal (zero-cost events)
  EXPECT_THROW(p.set_clock(4.0), Error);
}

TEST(Invariants, PortClocksMayNotMoveBackwards) {
  SKIP_WITHOUT_INVARIANTS();
  Processor p(0);
  p.set_out_link_free(3.0);
  EXPECT_THROW(p.set_out_link_free(2.0), Error);
  p.set_in_link_free(3.0);
  EXPECT_THROW(p.set_in_link_free(2.0), Error);
}

TEST(Invariants, PortClocksResetLegallyAtBarriers) {
  // clear_link_state (the sync_clocks barrier) is the sanctioned reset:
  // it bypasses the monotonicity guard by design.
  Processor p(0);
  p.set_out_link_free(3.0);
  p.set_in_link_free(3.0);
  p.clear_link_state();
  EXPECT_EQ(p.out_link_free(), 0.0);
  EXPECT_EQ(p.in_link_free(), 0.0);
  p.set_out_link_free(1.0);  // and the guard re-arms from zero
}

// --- edge ledger key discipline --------------------------------------------

TEST(Invariants, EdgeLedgerRejectsDuplicateKeys) {
  SKIP_WITHOUT_INVARIANTS();
  Processor p(0);
  p.reserve_edge(/*edge=*/7, /*send_time=*/1.0, /*src=*/2, /*seq=*/5,
                 /*t_in=*/1.0, /*wire=*/0.5);
  // Distinct keys on the same edge are fine, in any component.
  p.reserve_edge(7, 1.0, 2, 6, 1.5, 0.5);
  p.reserve_edge(7, 1.0, 3, 5, 1.5, 0.5);
  p.reserve_edge(7, 2.0, 2, 5, 2.0, 0.5);
  // Re-reserving an identical (send_time, src, seq) key is a resolved-twice
  // message: the serialization total order would no longer be total.
  EXPECT_THROW(p.reserve_edge(7, 1.0, 2, 5, 3.0, 0.5), Error);
  // The same key on a *different* edge is a different resource: legal.
  p.reserve_edge(8, 1.0, 2, 5, 1.0, 0.5);
}

// --- tag-band registration at send -----------------------------------------

TEST(Invariants, SendRejectsUnregisteredRuntimeBandTag) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2);
  EXPECT_THROW(m.run([&](Context& ctx) {
                 if (ctx.rank() == 0) {
                   // Inside the runtime band but in no registered slot.
                   ctx.send(1, kRuntimeTagBase + 999, 42);
                 }
               }),
               Error);
}

TEST(Invariants, SendRejectsUnregisteredCollectiveBandTag) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2);
  EXPECT_THROW(m.run([&](Context& ctx) {
                 if (ctx.rank() == 0) {
                   // The collectives band registers base+1..base+7 only.
                   ctx.send(1, kCollectiveTagBase + 100, 42);
                 }
               }),
               Error);
}

TEST(Invariants, SendAcceptsRegisteredTagsInEveryBand) {
  // Regression guard in both build modes: legal traffic never trips the
  // tag check.  One tag per band: user, runtime, kernel.
  Machine m(2);
  m.run([&](Context& ctx) {
    for (int tag : {42, kTagHalo, kTagRedistData, kTagTriBase + 4}) {
      if (ctx.rank() == 0) {
        ctx.send(1, tag, tag);
      } else {
        EXPECT_EQ(ctx.recv<int>(0, tag), tag);
      }
    }
  });
}

// --- sync_clocks straddle detection ----------------------------------------

TEST(Invariants, RecvRejectsMessageStraddlingSyncClocks) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2);
  try {
    m.run([&](Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, /*tag=*/5, 1.0);  // stamped with epoch 0
      } else {
        // Cross the barrier on the receiver alone (the epoch bump
        // sync_clocks performs after its own leak check has passed — a
        // full sync_clocks would trip that leak check first): the pending
        // message now straddles it.
        ctx.proc().bump_barrier_epoch();
        (void)ctx.recv<double>(0, 5);
      }
    });
    FAIL() << "straddling recv did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("straddles"), std::string::npos)
        << e.what();
  }
}

// --- message-leak accounting -----------------------------------------------

TEST(Invariants, SyncClocksRejectsLeakedMessage) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2);
  try {
    m.run([&](Context& ctx) {
      Group g = whole_machine(ctx);
      if (ctx.rank() == 0) {
        ctx.send(1, /*tag=*/5, 1.0);  // nobody ever receives this
      }
      // The machine-spanning barrier proves the phase's traffic has fully
      // arrived; rank 1's still-queued message is a leak.
      sync_clocks(ctx, g);
    });
    FAIL() << "leaked message did not throw at sync_clocks";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("leak at sync_clocks"), std::string::npos) << what;
    EXPECT_NE(what.find("tag 5"), std::string::npos) << what;
    EXPECT_NE(what.find("0 -> 1"), std::string::npos) << what;
  }
}

TEST(Invariants, SubgroupSyncClocksSkipsLeakCheck) {
  SKIP_WITHOUT_INVARIANTS();
  // Rank 2 (outside the subgroup) has already delivered tag 5 to rank 0
  // when ranks {0, 1} align clocks — the tag-6 handshake orders that, since
  // pushes from one sender are FIFO.  A subgroup barrier proves nothing
  // about rank 2's traffic, so the leak check must stay quiet; the late
  // recv then trips the (orthogonal) straddle invariant, which is the
  // error this test expects to see *instead* of a leak report.
  Machine m(3);
  try {
    m.run([&](Context& ctx) {
      if (ctx.rank() == 2) {
        ctx.send(0, /*tag=*/5, 1.0);
        ctx.send(0, /*tag=*/6, 2.0);
      }
      if (ctx.rank() == 0) {
        (void)ctx.recv<double>(2, 6);
      }
      if (ctx.rank() != 2) {
        Group g({0, 1}, ctx.rank());
        sync_clocks(ctx, g);
      }
      if (ctx.rank() == 0) {
        (void)ctx.recv<double>(2, 5);
      }
    });
    FAIL() << "expected the straddle invariant to fire";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("leak"), std::string::npos) << what;
    EXPECT_NE(what.find("straddles"), std::string::npos) << what;
  }
}

TEST(Invariants, TeardownRejectsLeakedMessage) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2);
  try {
    m.run([&](Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, /*tag=*/5, 1.0);  // sent, never received, no barrier
      }
    });
    FAIL() << "leaked message did not throw at teardown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("leak at machine teardown"), std::string::npos)
        << what;
    EXPECT_NE(what.find("tag 5"), std::string::npos) << what;
  }
}

TEST(Invariants, BalancedTrafficPassesBothLeakChecks) {
  // Regression guard in both build modes: matched send/recv traffic stays
  // silent through sync_clocks and teardown, and the per-tag ledgers
  // balance exactly.
  Machine m(2);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 3.0);
    } else {
      EXPECT_EQ(ctx.recv<double>(0, 5), 3.0);
    }
    sync_clocks(ctx, g);
  });
  EXPECT_TRUE(m.stats().unmatched_by_tag().empty());
}

TEST(Invariants, DroppedSplitPhaseExchangeDiagnosedAtReturn) {
  // A split-phase exchange whose handle is dropped without finish() is a
  // leak even when its messages arrive: the unpack never ran and the
  // messages rot in the queue.  The check runs in every build and names
  // the rank when its program returns.
  Machine m(2);
  try {
    m.run([&](Context& ctx) {
      DistArray1<double> a(ctx, ProcView::grid1(2), {8},
                           {DimDist::block_dist()}, {1});
      PendingExchange ex = a.exchange_halo_begin();
      if (ctx.rank() == 0) {
        ex.finish();
      }
    });
    ADD_FAILURE() << "dropped exchange not diagnosed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("split-phase exchange never finished: rank 1"),
              std::string::npos)
        << what;
  }
  // A failed run leaves nothing open for the next run on the same machine
  // (one rank: its halo has no neighbour, so no message is left behind).
  Machine solo(1);
  auto drop = [](Context& ctx) {
    DistArray1<double> a(ctx, ProcView::grid1(1), {8},
                         {DimDist::block_dist()}, {1});
    PendingExchange ex = a.exchange_halo_begin();
    EXPECT_TRUE(ex.active());
  };
  EXPECT_THROW(solo.run(drop), Error);
  solo.run([](Context&) {});
}

TEST(Invariants, FinishedExchangePassesTheLeakCheck) {
  // Regression guard in both build modes: a finished split-phase exchange
  // leaves nothing open and nothing queued for the teardown checks.
  Machine m(2);
  m.run([&](Context& ctx) {
    DistArray1<double> a(ctx, ProcView::grid1(2), {8},
                         {DimDist::block_dist()}, {1});
    a.fill([](std::array<int, 1> g) { return 1.0 + g[0]; });
    auto ex = a.exchange_halo_begin();
    ex.finish();
    EXPECT_EQ(a.at_halo({ctx.rank() == 0 ? 4 : 3}),
              ctx.rank() == 0 ? 5.0 : 4.0);
  });
  EXPECT_TRUE(m.stats().unmatched_by_tag().empty());
}

// Two same-shape transposes on 4 ranks (rows -> columns): the exchanges
// share every (src, tag) lane (kTagRedistData), and their slabs have equal
// sizes, so a receive that took the other exchange's message would pass
// the unpack's size check and swap the results silently.
struct TwoTransposes {
  using D2 = DistArray2<double>;
  D2 x, xt, y, yt;
  explicit TwoTransposes(Context& ctx)
      : x(ctx, ProcView::grid1(4), {8, 8}, {DimDist::block_dist(), DimDist::star()}),
        xt(ctx, ProcView::grid1(4), {8, 8}, {DimDist::star(), DimDist::block_dist()}),
        y(ctx, ProcView::grid1(4), {8, 8}, {DimDist::block_dist(), DimDist::star()}),
        yt(ctx, ProcView::grid1(4), {8, 8}, {DimDist::star(), DimDist::block_dist()}) {
    x.fill([](std::array<int, 2> g) { return 8.0 * g[0] + g[1]; });
    y.fill([](std::array<int, 2> g) { return -8.0 * g[0] - g[1] - 1.0; });
  }
  void expect_transposed() const {
    xt.for_each_owned([&](std::array<int, 2> g) {
      EXPECT_EQ(xt.at(g), 8.0 * g[0] + g[1]);
    });
    yt.for_each_owned([&](std::array<int, 2> g) {
      EXPECT_EQ(yt.at(g), -8.0 * g[0] - g[1] - 1.0);
    });
  }
};

TEST(Invariants, SplitPhaseExchangesMustFinishInBeginOrder) {
  // Finishing the later of two open exchanges first would hand it the
  // earlier one's messages.  Every build rejects the out-of-order finish()
  // before it receives anything; the in-order program is correct.
  Machine ok(4);
  ok.run([](Context& ctx) {
    TwoTransposes t(ctx);
    PendingExchange a = redistribute_begin(ctx, t.x, t.xt);
    PendingExchange b = redistribute_begin(ctx, t.y, t.yt);
    a.finish();
    b.finish();
    t.expect_transposed();
  });
  Machine m(4);
  try {
    m.run([](Context& ctx) {
      TwoTransposes t(ctx);
      PendingExchange a = redistribute_begin(ctx, t.x, t.xt);
      PendingExchange b = redistribute_begin(ctx, t.y, t.yt);
      b.finish();
      a.finish();
    });
    ADD_FAILURE() << "out-of-order finish not diagnosed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("split-phase exchanges must finish in the order they "
                        "began"),
              std::string::npos)
        << what;
  }
}

TEST(Invariants, ReceiveOnAnOpenExchangeLaneRejected) {
  // A blocking transpose between the begin and the finish of a split-phase
  // one receives on the open exchange's lanes and would take its messages.
  // Every build rejects that receive.
  Machine m(4);
  try {
    m.run([](Context& ctx) {
      TwoTransposes t(ctx);
      PendingExchange a = redistribute_begin(ctx, t.x, t.xt);
      redistribute(ctx, t.y, t.yt);
      a.finish();
    });
    ADD_FAILURE() << "receive on an open exchange's lane not diagnosed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("would take a message an open split-phase exchange "
                        "expects"),
              std::string::npos)
        << what;
  }
}

TEST(Invariants, NestedExchangeOnDisjointLanesSucceeds) {
  // Blocking exchanges between the begin and the finish of a split-phase
  // transpose are legal when their lanes differ from the transpose's
  // (kTagRedistData): a face halo (kTagHalo lanes) and a strided copy
  // (kTagRemap) each receive only their own messages.
  Machine m(4);
  m.run([](Context& ctx) {
    TwoTransposes t(ctx);
    DistArray1<double> a(ctx, ProcView::grid1(4), {16},
                         {DimDist::block_dist()}, {1});
    DistArray1<double> b(ctx, ProcView::grid1(4), {8},
                         {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 2.0 * g[0]; });
    PendingExchange x = redistribute_begin(ctx, t.x, t.xt);
    a.exchange_halo();
    copy_strided_dim(ctx, a, b, 0, /*s_stride=*/2, 0, /*d_stride=*/1, 0, 8);
    x.finish();
    redistribute(ctx, t.y, t.yt);
    t.expect_transposed();
    if (ctx.rank() > 0) {
      EXPECT_EQ(a.at_halo({a.own_lower(0) - 1}), 2.0 * (a.own_lower(0) - 1));
    }
    b.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_EQ(b.at(g), 4.0 * g[0]);
    });
  });
  EXPECT_TRUE(m.stats().unmatched_by_tag().empty());
}

TEST(Invariants, BarrierSeparatedPhasesPassTheStraddleCheck) {
  // Regression guard: a well-phased program (all traffic quiesced before
  // each sync_clocks, fresh traffic after) is legal in both build modes.
  Machine m(2);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    for (int phase = 0; phase < 3; ++phase) {
      if (ctx.rank() == 0) {
        ctx.send(1, /*tag=*/5, static_cast<double>(phase));
      } else {
        EXPECT_EQ(ctx.recv<double>(0, 5), static_cast<double>(phase));
      }
      sync_clocks(ctx, g);
    }
    const double sum = allreduce_sum(ctx, g, 1.0);
    EXPECT_EQ(sum, 2.0);
  });
}

}  // namespace
}  // namespace kali
