#include "runtime/doall.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "machine/context.hpp"
#include "runtime/io.hpp"

namespace kali {
namespace {

double tag(int i, int j) { return 10.0 * i + j; }

TEST(Doall, CoversRangeExactlyOnce1D) {
  Machine m(4);
  std::mutex mu;
  std::multiset<int> executed;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {19}, {DimDist::block_dist()});
    doall(a, Range{2, 17}, [&](int i) {
      std::lock_guard<std::mutex> lk(mu);
      executed.insert(i);
    });
  });
  ASSERT_EQ(executed.size(), 16u);
  for (int i = 2; i <= 17; ++i) {
    EXPECT_EQ(executed.count(i), 1u) << i;
  }
}

TEST(Doall, NonPositiveStrideFailsLoudlyEverywhere) {
  // Range::contains and the doall strip-miners share one validation point:
  // a non-positive step throws from both instead of silently returning
  // false from one and throwing from the other.
  EXPECT_THROW(((void)Range{0, 10, 0}.contains(3)), Error);
  EXPECT_THROW(((void)Range{0, 10, -2}.contains(0)), Error);
  const DimMap map(DimDist::block_dist(), 8, 2);
  EXPECT_THROW((void)detail::owned_in_range(map, 0, Range{0, 7, 0}), Error);
  EXPECT_THROW((void)detail::owned_in_range(map, 0, Range{0, 7, -1}), Error);
  // ... even for ranges that would otherwise be empty.
  EXPECT_THROW((void)detail::owned_in_range(map, 0, Range{5, 2, 0}), Error);
  // Valid strides keep working.
  EXPECT_TRUE((Range{0, 10, 2}.contains(4)));
  EXPECT_FALSE((Range{0, 10, 2}.contains(5)));
  EXPECT_FALSE((Range{0, 10, 2}.contains(11)));
}

TEST(Doall, RespectsStride) {
  // The zebra loops: doall k = 2, nz-2, 2.
  Machine m(2);
  std::mutex mu;
  std::multiset<int> executed;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {16}, {DimDist::block_dist()});
    doall(a, Range{2, 14, 2}, [&](int i) {
      std::lock_guard<std::mutex> lk(mu);
      executed.insert(i);
    });
  });
  ASSERT_EQ(executed.size(), 7u);
  for (int i = 2; i <= 14; i += 2) {
    EXPECT_EQ(executed.count(i), 1u);
  }
}

TEST(Doall, InvocationRunsOnOwner) {
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {16}, {DimDist::block_dist()});
    doall(a, Range{0, 15}, [&](int i) { EXPECT_TRUE(a.owns({i})); });
  });
}

TEST(Doall, CyclicStripMining) {
  Machine m(3);
  std::mutex mu;
  std::multiset<int> executed;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<double> a(ctx, pv, {10}, {DimDist::cyclic()});
    doall(a, Range{1, 8}, [&](int i) {
      EXPECT_TRUE(a.owns({i}));
      std::lock_guard<std::mutex> lk(mu);
      executed.insert(i);
    });
  });
  EXPECT_EQ(executed.size(), 8u);
}

TEST(Doall, BlockCyclicStripMining) {
  Machine m(3);
  std::mutex mu;
  std::multiset<int> executed;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<double> a(ctx, pv, {20}, {DimDist::block_cyclic(2)});
    doall(a, Range{3, 18}, [&](int i) {
      EXPECT_TRUE(a.owns({i}));
      std::lock_guard<std::mutex> lk(mu);
      executed.insert(i);
    });
  });
  ASSERT_EQ(executed.size(), 16u);
  for (int i = 3; i <= 18; ++i) {
    EXPECT_EQ(executed.count(i), 1u) << i;
  }
}

TEST(Doall, JacobiUpdateMatchesSequential) {
  // The Listing 3 doall: updates use copy-in values, not freshly written.
  constexpr int n = 8;
  Machine m(4);
  std::vector<double> parallel_result;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> x(ctx, pv, {n + 1, n + 1},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {1, 1});
    x.fill([](std::array<int, 2> g) { return tag(g[0], g[1]); });
    auto in = x.copy_in();
    doall2(x, Range{1, n - 1}, Range{1, n - 1},
           [&](int i, int j) {
             x(i, j) = 0.25 * (in.at_halo({i + 1, j}) + in.at_halo({i - 1, j}) +
                               in.at_halo({i, j + 1}) + in.at_halo({i, j - 1}));
           },
           4.0);
    auto full = gather_global(x);
    if (ctx.rank() == 0) {
      parallel_result = full;
    }
  });
  // Sequential reference.
  std::vector<double> ref(static_cast<std::size_t>((n + 1) * (n + 1)));
  auto refat = [&](int i, int j) -> double& {
    return ref[static_cast<std::size_t>(i * (n + 1) + j)];
  };
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j <= n; ++j) {
      refat(i, j) = tag(i, j);
    }
  }
  std::vector<double> old = ref;
  auto oldat = [&](int i, int j) {
    return old[static_cast<std::size_t>(i * (n + 1) + j)];
  };
  for (int i = 1; i < n; ++i) {
    for (int j = 1; j < n; ++j) {
      refat(i, j) = 0.25 * (oldat(i + 1, j) + oldat(i - 1, j) +
                            oldat(i, j + 1) + oldat(i, j - 1));
    }
  }
  ASSERT_EQ(parallel_result.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_NEAR(parallel_result[k], ref[k], 1e-13);
  }
}

TEST(Doall, SliceOwnerExecutesOnWholeProcessorRow) {
  // Listing 7: doall i ... on owner(r(i, *)) — every processor in the
  // owning row executes invocation i.
  Machine m(4);
  std::mutex mu;
  std::multiset<std::pair<int, int>> exec;  // (i, rank)
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> r(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    doall_slice_owner(r, 0, Range{0, 7}, [&](int i) {
      std::lock_guard<std::mutex> lk(mu);
      exec.insert({i, ctx.rank()});
    });
  });
  // Each of 8 rows must be executed by exactly the 2 processors of its row.
  EXPECT_EQ(exec.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    const int prow = i / 4;
    for (int pcol = 0; pcol < 2; ++pcol) {
      EXPECT_EQ(exec.count({i, prow * 2 + pcol}), 1u) << "i=" << i;
    }
  }
}

TEST(Doall, ProcsLoopRunsOncePerMember) {
  Machine m(4);
  std::mutex mu;
  std::multiset<int> ips;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    doall_procs(ctx, pv, [&](int ip) {
      EXPECT_EQ(pv.rank_of1(ip), ctx.rank());
      std::lock_guard<std::mutex> lk(mu);
      ips.insert(ip);
    });
  });
  EXPECT_EQ(ips.size(), 4u);
}

TEST(Doall, ProcsLoopSkipsNonMembers) {
  Machine m(4);
  std::mutex mu;
  int count = 0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(2, /*base=*/1);  // ranks 1, 2 only
    doall_procs(ctx, pv, [&](int) {
      std::lock_guard<std::mutex> lk(mu);
      ++count;
    });
  });
  EXPECT_EQ(count, 2);
}

TEST(Doall, SumReductionReplicatesResult) {
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    a.fill([](std::array<int, 2>) { return 1.0; });
    const double s =
        doall2_sum(a, Range{0, 7}, Range{0, 7}, [&](int i, int j) { return a(i, j); });
    EXPECT_DOUBLE_EQ(s, 64.0);  // every member sees the replicated scalar
  });
}

TEST(Doall, ChargesModeledFlops) {
  Machine m(2);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    doall(a, Range{0, 7}, [](int) {}, 5.0);
  });
  // 8 invocations x 5 flops split across processors.
  EXPECT_DOUBLE_EQ(m.stats().totals().flops, 40.0);
}

TEST(Doall, EmptyRangeExecutesNothing) {
  Machine m(2);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    doall(a, Range{5, 4}, [](int) { FAIL() << "must not run"; });
  });
}

}  // namespace
}  // namespace kali
