// Deadlock detection (machine/deadlock.hpp): a blocked recv publishes its
// wait edge, and at the first full scheduler stall — every rank finished
// or parked, so nothing can send again — the run aborts at once with a
// full per-rank diagnostic.  With detection off it aborts just as soon,
// with the scheduler's one-line error instead of the dump.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "machine/message.hpp"
#include "runtime/dist_array.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

std::string run_expecting_error(Machine& m,
                                const std::function<void(Context&)>& prog) {
  try {
    m.run(prog);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "program completed without the expected Error";
  return {};
}

TEST(Deadlock, TwoRankCycleDetectedInstantly) {
  Machine m(2);
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    // 0 waits on 1 and 1 waits on 0; neither ever sends.
    (void)ctx.recv<int>(1 - ctx.rank(), /*tag=*/5);
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  EXPECT_NE(what.find("STUCK"), std::string::npos) << what;
}

TEST(Deadlock, FourRankCycleNamesEveryBlockedRank) {
  Machine m(4);
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    (void)ctx.recv<int>((ctx.rank() + 1) % 4, /*tag=*/5);
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  // The dump names every blocked rank with its expected (src, tag).
  for (int r = 0; r < 4; ++r) {
    const std::string line = "rank " + std::to_string(r) +
                             ": STUCK in recv(src=" +
                             std::to_string((r + 1) % 4) + ", tag=5";
    EXPECT_NE(what.find(line), std::string::npos) << what;
  }
}

TEST(Deadlock, TagMismatchCaughtWhenSenderRetires) {
  Machine m(2);
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 42);  // wrong tag, then rank 0 finishes
    } else {
      (void)ctx.recv<int>(0, /*tag=*/6);  // waits forever on tag 6
    }
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  EXPECT_NE(what.find("recv(src=0, tag=6"), std::string::npos) << what;
  // The dump shows the mismatched message still queued in the mailbox.
  EXPECT_NE(what.find("tag 5"), std::string::npos) << what;
}

TEST(Deadlock, PartialGroupStallDetectedWhileOthersWork) {
  Machine m(4);
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    if (ctx.rank() < 2) {
      // Ranks 0 and 1 are healthy: a clean exchange, then done.
      ctx.send(1 - ctx.rank(), /*tag=*/7, ctx.rank());
      (void)ctx.recv<int>(1 - ctx.rank(), /*tag=*/7);
    } else {
      // Ranks 2 and 3 deadlock on each other.
      (void)ctx.recv<int>(ctx.rank() == 2 ? 3 : 2, /*tag=*/5);
    }
  });
  EXPECT_NE(what.find("rank 2: STUCK in recv(src=3, tag=5"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("rank 3: STUCK in recv(src=2, tag=5"),
            std::string::npos)
      << what;
}

TEST(Deadlock, QueuedMatchKeepsWaiterAliveWhenSenderRetires) {
  // A sender that has already pushed the match may finish while the
  // receiver is still blocked: the push wakes the waiter, so the run never
  // stalls and nothing is flagged.
  Machine m(2);
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 99);
    } else {
      EXPECT_EQ(ctx.recv<int>(0, /*tag=*/5), 99);
    }
  });
}

TEST(Deadlock, SplitPhaseFinishOnNeverSentFaceDiagnosedByGraph) {
  // A split-phase halo whose neighbour returns without sending deadlocks
  // at finish(), not at begin: the batched receive parks on each lane and
  // publishes the same wait-for edge a blocking recv does, so the stall
  // diagnoses it at once.
  Machine m(2);
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    if (ctx.rank() == 0) {
      DistArray1<double> a(ctx, ProcView::grid1(2), {8},
                           {DimDist::block_dist()}, {1});
      auto ex = a.exchange_halo_begin();
      ex.finish();  // rank 1 returns without sending: provably dead
    }
    // rank 1 returns immediately.
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  EXPECT_NE(what.find("STUCK in recv(src=1, tag=" +
                      std::to_string(kTagHalo)),
            std::string::npos)
      << what;
  EXPECT_EQ(what.find("timed out"), std::string::npos) << what;
}

TEST(Deadlock, DumpIdenticalAcrossWorkerCounts) {
  // The dump is taken at the full stall, so it is a function of the
  // program alone, not of how the host interleaved the fibers.
  std::vector<std::string> dumps;
  for (const int workers : {1, 4}) {
    MachineConfig cfg;
    cfg.sim_workers = workers;
    Machine m(4, cfg);
    dumps.push_back(run_expecting_error(m, [](Context& ctx) {
      (void)ctx.recv<int>((ctx.rank() + 1) % 4, /*tag=*/5);
    }));
  }
  EXPECT_NE(dumps[0].find("wait-for-graph"), std::string::npos) << dumps[0];
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(Deadlock, DisabledDetectionFailsAtOnceWithoutDump) {
  MachineConfig cfg;
  cfg.deadlock_detection = false;
  Machine m(2, cfg);
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    (void)ctx.recv<int>(1 - ctx.rank(), /*tag=*/5);
  });
  EXPECT_EQ(what, "full stall: 2 rank(s) parked, none can be woken");
}

}  // namespace
}  // namespace kali
