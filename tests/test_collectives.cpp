#include "machine/collectives.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "machine/context.hpp"
#include "runtime/proc_view.hpp"

namespace kali {
namespace {

Group whole_machine(Context& ctx) {
  std::vector<int> ranks(static_cast<std::size_t>(ctx.nprocs()));
  std::iota(ranks.begin(), ranks.end(), 0);
  return Group(std::move(ranks), ctx.rank());
}

class CollectivesP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesP, BroadcastReachesAllMembers) {
  const int p = GetParam();
  Machine m(p);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    std::vector<double> data(5, ctx.rank() == 2 % p ? 3.5 : 0.0);
    broadcast(ctx, g, 2 % p, std::span<double>(data));
    for (double v : data) {
      EXPECT_DOUBLE_EQ(v, 3.5);
    }
  });
}

TEST_P(CollectivesP, AllreduceSumMatchesClosedForm) {
  const int p = GetParam();
  Machine m(p);
  m.run([&](Context& ctx) {
    const int total = allreduce_sum(ctx, whole_machine(ctx), ctx.rank() + 1);
    EXPECT_EQ(total, p * (p + 1) / 2);
  });
}

TEST_P(CollectivesP, AllreduceMax) {
  const int p = GetParam();
  Machine m(p);
  m.run([&](Context& ctx) {
    const double v = allreduce_max(ctx, whole_machine(ctx),
                                   static_cast<double>(ctx.rank()));
    EXPECT_DOUBLE_EQ(v, static_cast<double>(p - 1));
  });
}

TEST_P(CollectivesP, ReduceOnlyRootHoldsResult) {
  const int p = GetParam();
  Machine m(p);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    std::vector<int> data{ctx.rank(), 1};
    reduce(ctx, g, 0, std::span<int>(data), [](int a, int b) { return a + b; });
    if (g.index() == 0) {
      EXPECT_EQ(data[0], p * (p - 1) / 2);
      EXPECT_EQ(data[1], p);
    }
  });
}

TEST_P(CollectivesP, GatherConcatenatesInGroupOrder) {
  const int p = GetParam();
  Machine m(p);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    // Member i contributes i+1 copies of its rank.
    std::vector<int> mine(static_cast<std::size_t>(ctx.rank() + 1), ctx.rank());
    auto all = gather(ctx, g, 0, std::span<const int>(mine));
    if (g.index() == 0) {
      std::vector<int> expect;
      for (int i = 0; i < p; ++i) {
        expect.insert(expect.end(), static_cast<std::size_t>(i + 1), i);
      }
      EXPECT_EQ(all, expect);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectivesP, AllGatherConcatenatesEverywhere) {
  const int p = GetParam();
  MachineConfig cfg;
  cfg.allgather_tree_max_bytes = 0;  // pin the dense pairwise algorithm
  Machine m(p, cfg);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    // Member i contributes i+1 copies of its rank — variable lengths, no
    // counts on the wire.
    std::vector<int> mine(static_cast<std::size_t>(ctx.rank() + 1), ctx.rank());
    auto all = all_gather(ctx, g, std::span<const int>(mine));
    std::vector<int> expect;
    for (int i = 0; i < p; ++i) {
      expect.insert(expect.end(), static_cast<std::size_t>(i + 1), i);
    }
    EXPECT_EQ(all, expect);  // every member, not just a root
  });
  // A dense pairwise exchange: p(p-1) messages, none of them self-sends.
  EXPECT_EQ(m.stats().totals().msgs_sent,
            static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p - 1));
  EXPECT_EQ(m.stats().self_msgs_total(), 0u);
}

TEST(Collectives, AllGatherIssueOrdersAgree) {
  // Round schedule and naive peer order move the same payloads: identical
  // results (only clocks may differ under contention).
  for (IssueOrder order :
       {IssueOrder::kRoundSchedule, IssueOrder::kPeerOrder}) {
    SCOPED_TRACE(static_cast<int>(order));
    MachineConfig cfg;
    cfg.link_contention = LinkContention::kPorts;
    cfg.allgather_tree_max_bytes = 0;  // the orders govern the dense path
    Machine m(6, cfg);
    m.run([&](Context& ctx) {
      Group g = whole_machine(ctx);
      std::vector<double> mine(3, 1.5 * ctx.rank());
      auto all = all_gather(ctx, g, std::span<const double>(mine), order);
      ASSERT_EQ(all.size(), 18u);
      for (int i = 0; i < 6; ++i) {
        for (int k = 0; k < 3; ++k) {
          EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(3 * i + k)], 1.5 * i);
        }
      }
    });
  }
}

TEST(Collectives, AllGatherOverStridedColumnViews) {
  // Independent all_gathers on the strided column slices of a 2-D grid,
  // running concurrently (the schedule communicator is the sorted member
  // set, not a dense rank prefix).
  Machine m(6);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(3, 2);  // columns {0,2,4} and {1,3,5}
    const auto coord = *pv.coord_of(ctx.rank());
    Group g = pv.fix(1, coord[1]).group(ctx.rank());
    std::vector<int> mine{ctx.rank()};
    auto all = all_gather(ctx, g, std::span<const int>(mine));
    // Column jp holds ranks jp, jp+2, jp+4 in group order.
    EXPECT_EQ(all, (std::vector<int>{coord[1], coord[1] + 2, coord[1] + 4}));
  });
}

TEST(Collectives, HybridAllGatherTreeMatchesDenseForTinyPayloads) {
  // Below the crossover the hybrid rides the gather+broadcast tree:
  // identical concatenation with O(p) messages instead of the dense
  // exchange's p(p-1), and correspondingly less aggregate send/recv
  // overhead burned across the machine.  (The dense path keeps the
  // better *makespan* in this model — its single overlapped latency
  // beats the tree's chained levels — the tree trades critical path
  // for quadratically less network load.)
  const int p = 8;
  auto run = [&](std::size_t cutoff, std::uint64_t* msgs, double* overhead) {
    MachineConfig cfg;
    cfg.allgather_tree_max_bytes = cutoff;
    Machine m(p, cfg);
    std::vector<int> result;
    m.run([&](Context& ctx) {
      Group g = whole_machine(ctx);
      // Variable lengths to exercise the tree's count plumbing.
      std::vector<int> mine(static_cast<std::size_t>(ctx.rank() % 3 + 1),
                            ctx.rank());
      auto all = all_gather(ctx, g, std::span<const int>(mine));
      if (ctx.rank() == 0) {
        result = all;
      }
    });
    *msgs = m.stats().totals().msgs_sent;
    *overhead = m.stats().totals().overhead_time;
    EXPECT_EQ(m.stats().self_msgs_total(), 0u);
    return result;
  };
  std::uint64_t tree_msgs = 0, dense_msgs = 0;
  double tree_overhead = 0, dense_overhead = 0;
  const auto tree = run(1024, &tree_msgs, &tree_overhead);
  const auto dense = run(0, &dense_msgs, &dense_overhead);
  EXPECT_EQ(tree, dense);  // same concatenation, whichever algorithm
  EXPECT_LT(tree_msgs, dense_msgs);
  EXPECT_LT(tree_overhead, dense_overhead);
}

TEST(Collectives, HybridAllGatherKeepsDensePathForLargePayloads) {
  // Above the crossover the dense pairwise exchange must run: p(p-1)
  // payload messages, plus the size-agreement allreduce's 2(p-1) scalars.
  const int p = 8;
  MachineConfig cfg;  // default crossover (1024 bytes)
  Machine m(p, cfg);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    std::vector<double> mine(300, 1.0 * ctx.rank());  // 2400 B > crossover
    auto all = all_gather(ctx, g, std::span<const double>(mine));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p) * 300);
    for (int i = 0; i < p; ++i) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(i) * 300], 1.0 * i);
    }
  });
  const auto expected = static_cast<std::uint64_t>(p) *
                            static_cast<std::uint64_t>(p - 1) +
                        2u * static_cast<std::uint64_t>(p - 1);
  EXPECT_EQ(m.stats().totals().msgs_sent, expected);
  EXPECT_EQ(m.stats().self_msgs_total(), 0u);
}

TEST_P(CollectivesP, BarrierCompletes) {
  const int p = GetParam();
  Machine m(p);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    for (int round = 0; round < 3; ++round) {
      barrier(ctx, g);
    }
  });
  SUCCEED();
}

TEST_P(CollectivesP, SyncClocksAlignsToMax) {
  const int p = GetParam();
  Machine m(p);
  m.run([&](Context& ctx) {
    ctx.compute(1000.0 * (ctx.rank() + 1));
    const double t = sync_clocks(ctx, whole_machine(ctx));
    EXPECT_DOUBLE_EQ(t, ctx.clock());
  });
  // After sync, no processor's clock may be below the pre-sync max.
  const double pre_max = 1000.0 * p * m.config().flop_time;
  for (double c : m.stats().clocks) {
    EXPECT_GE(c, pre_max);
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Collectives, SubgroupDoesNotDisturbOutsiders) {
  Machine m(4);
  m.run([](Context& ctx) {
    if (ctx.rank() < 2) {
      Group g({0, 1}, ctx.rank());
      EXPECT_EQ(allreduce_sum(ctx, g, 10), 20);
    }
    // Ranks 2,3 do nothing; run must still terminate cleanly.
  });
}

TEST(Collectives, WorkOverStridedColumnViews) {
  // The ADI/mg3 pattern: independent collectives on the strided column
  // slices procs(*, jp) of a 2-D grid, running concurrently.
  Machine m(6);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(3, 2);  // columns {0,2,4} and {1,3,5}
    const auto coord = *pv.coord_of(ctx.rank());
    ProcView col = pv.fix(1, coord[1]);
    Group g = col.group(ctx.rank());
    EXPECT_EQ(g.size(), 3);
    const int sum = allreduce_sum(ctx, g, ctx.rank());
    // Column jp holds ranks jp, jp+2, jp+4.
    EXPECT_EQ(sum, 3 * coord[1] + 6);
    std::vector<double> data{static_cast<double>(ctx.rank())};
    broadcast(ctx, g, 0, std::span<double>(data));
    EXPECT_DOUBLE_EQ(data[0], static_cast<double>(coord[1]));
  });
}

TEST(Collectives, NonMemberConstructionThrows) {
  EXPECT_THROW(Group({0, 1}, 5), Error);
}

TEST(Collectives, GatherWorksForEveryRoot) {
  const int p = 7;
  Machine m(p);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    for (int root = 0; root < p; ++root) {
      std::vector<int> mine(static_cast<std::size_t>(ctx.rank() % 3),
                            10 * ctx.rank());
      auto all = gather(ctx, g, root, std::span<const int>(mine));
      if (g.index() == root) {
        std::vector<int> expect;
        for (int i = 0; i < p; ++i) {
          expect.insert(expect.end(), static_cast<std::size_t>(i % 3), 10 * i);
        }
        EXPECT_EQ(all, expect);
      } else {
        EXPECT_TRUE(all.empty());
      }
    }
  });
}

TEST(Collectives, GatherDrainsChildrenThroughTree) {
  // The root must not pay P - 1 serial receives: contributions aggregate
  // up the binary tree, every non-root member forwarding exactly one
  // counts message and one payload message, so the root receives at most
  // two message pairs however large the group.
  const int p = 16;
  Machine m(p);
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    std::vector<double> mine(4, 1.0 * ctx.rank());
    (void)gather(ctx, g, 0, std::span<const double>(mine));
  });
  const MachineStats st = m.stats();
  EXPECT_EQ(st.per_proc[0].msgs_recv, 4u);  // 2 children x (counts + data)
  EXPECT_EQ(st.totals().msgs_sent, static_cast<std::uint64_t>(2 * (p - 1)));
}

TEST(Collectives, SyncClocksDoesNotLeakLinkStateAcrossPhases) {
  // The regression the barrier fix pins down: a contended phase *before*
  // sync_clocks (and the barrier's own traffic) must not change what a
  // measured phase after it reports — under the port model and the
  // store-and-forward model alike.
  for (LinkContention mode :
       {LinkContention::kPorts, LinkContention::kStoreForward}) {
    SCOPED_TRACE(static_cast<int>(mode));
    auto measured_phase = [&](bool noisy_prelude) {
      MachineConfig cfg;
      cfg.topology = Topology::kHypercube;
      cfg.link_contention = mode;
      Machine m(8, cfg);
      std::vector<double> waits(8, 0.0);
      std::vector<double> spans(8, 0.0);
      m.run([&](Context& ctx) {
        Group g = whole_machine(ctx);
        std::vector<double> v(2000, 1.0);
        auto hot_exchange = [&] {
          // Everyone floods rank 0 — heavy port and edge queueing.
          if (ctx.rank() != 0) {
            ctx.send_span<double>(0, 5, v);
          } else {
            for (int s = 1; s < ctx.nprocs(); ++s) {
              (void)ctx.recv_vec<double>(s, 5);
            }
          }
        };
        if (noisy_prelude) {
          hot_exchange();
        }
        const double aligned = sync_clocks(ctx, g);
        const ProcCounters before = ctx.proc().counters();
        hot_exchange();
        const auto r = static_cast<std::size_t>(ctx.rank());
        waits[r] = (ctx.proc().counters().link_wait_time -
                    before.link_wait_time) +
                   (ctx.proc().counters().edge_wait_time -
                    before.edge_wait_time);
        spans[r] = ctx.clock() - aligned;
      });
      return std::pair{waits, spans};
    };
    const auto [w_clean, s_clean] = measured_phase(false);
    const auto [w_noisy, s_noisy] = measured_phase(true);
    for (std::size_t r = 0; r < w_clean.size(); ++r) {
      EXPECT_NEAR(w_noisy[r], w_clean[r], 1e-9) << "rank " << r;
      EXPECT_NEAR(s_noisy[r], s_clean[r], 1e-9) << "rank " << r;
    }
    // The phase itself is genuinely contended — the equality above is not
    // comparing zeros.
    double total = 0.0;
    for (double w : w_clean) {
      total += w;
    }
    EXPECT_GT(total, 0.0);
  }
}

TEST(Collectives, SyncClocksChargesNoPhantomWaitToStraddlingMessages) {
  // A message sent before the barrier and received after it crosses an
  // otherwise idle link: resetting the port clocks at the barrier must not
  // manufacture queueing against it.
#if defined(KALI_CHECK_INVARIANTS)
  GTEST_SKIP() << "straddling sync_clocks is rejected under "
                  "KALI_CHECK_INVARIANTS (see test_invariants.cpp); this "
                  "test pins the release-mode cost accounting";
#endif
  for (LinkContention mode :
       {LinkContention::kPorts, LinkContention::kStoreForward}) {
    SCOPED_TRACE(static_cast<int>(mode));
    MachineConfig cfg;
    cfg.link_contention = mode;
    Machine m(4, cfg);
    m.run([](Context& ctx) {
      Group g = whole_machine(ctx);
      if (ctx.rank() == 3) {
        ctx.send<int>(2, 5, 42);   // in flight across the barrier
        ctx.compute(1.0e6);        // push the aligned clock far past it
      }
      sync_clocks(ctx, g);
      if (ctx.rank() == 2) {
        EXPECT_EQ(ctx.recv<int>(3, 5), 42);
      }
    });
    EXPECT_EQ(m.stats().contended_msgs(), 0u);
    EXPECT_DOUBLE_EQ(m.stats().link_wait_time(), 0.0);
    EXPECT_DOUBLE_EQ(m.stats().edge_wait_time(), 0.0);
  }
}

TEST(Collectives, DisjointSubgroupsRunConcurrently) {
  Machine m(4);
  m.run([](Context& ctx) {
    const bool low = ctx.rank() < 2;
    Group g(low ? std::vector<int>{0, 1} : std::vector<int>{2, 3}, ctx.rank());
    const int sum = allreduce_sum(ctx, g, ctx.rank());
    EXPECT_EQ(sum, low ? 1 : 5);
  });
}

}  // namespace
}  // namespace kali
