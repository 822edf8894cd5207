// Dedicated coverage for 3-D doall strip-mining and 3-D distributed-array
// mechanics (previously exercised only indirectly through mg3).
#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "machine/context.hpp"
#include "runtime/doall.hpp"
#include "runtime/io.hpp"

namespace kali {
namespace {

double tag3(int i, int j, int k) { return 10000.0 * i + 100.0 * j + k; }

using D3 = DistArray3<double>;
const typename D3::Dists kDists{DimDist::star(), DimDist::block_dist(),
                                DimDist::block_dist()};

TEST(Doall3, CoversRangeProductExactlyOnce) {
  Machine m(4);
  std::mutex mu;
  std::multiset<std::tuple<int, int, int>> exec;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    D3 a(ctx, pv, {4, 8, 8}, kDists);
    doall3(a, Range{1, 2}, Range{0, 7}, Range{2, 6, 2}, [&](int i, int j, int k) {
      EXPECT_TRUE(a.owns({i, j, k}));
      std::lock_guard<std::mutex> lk(mu);
      exec.insert({i, j, k});
    });
  });
  EXPECT_EQ(exec.size(), 2u * 8u * 3u);
  for (int i = 1; i <= 2; ++i) {
    for (int j = 0; j <= 7; ++j) {
      for (int k = 2; k <= 6; k += 2) {
        EXPECT_EQ(exec.count({i, j, k}), 1u);
      }
    }
  }
}

TEST(Doall3, ChargesPerExecutedInvocation) {
  Machine m(2);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(1, 2);
    D3 a(ctx, pv, {2, 4, 8}, kDists);
    doall3(a, Range{0, 1}, Range{0, 3}, Range{0, 7}, [](int, int, int) {}, 3.0);
  });
  EXPECT_DOUBLE_EQ(m.stats().totals().flops, 3.0 * 2 * 4 * 8);
}

TEST(Doall3, HaloExchange3DFacesValid) {
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    D3 a(ctx, pv, {3, 8, 8}, kDists, {0, 1, 1});
    a.fill([](std::array<int, 3> g) { return tag3(g[0], g[1], g[2]); });
    a.exchange_halo();
    const int jlo = a.own_lower(1), jhi = a.own_upper(1);
    const int klo = a.own_lower(2), khi = a.own_upper(2);
    for (int i = 0; i < 3; ++i) {
      for (int j = jlo; j <= jhi; ++j) {
        if (klo > 0) {
          EXPECT_DOUBLE_EQ(a.at_halo({i, j, klo - 1}), tag3(i, j, klo - 1));
        }
        if (khi < 7) {
          EXPECT_DOUBLE_EQ(a.at_halo({i, j, khi + 1}), tag3(i, j, khi + 1));
        }
      }
      for (int k = klo; k <= khi; ++k) {
        if (jlo > 0) {
          EXPECT_DOUBLE_EQ(a.at_halo({i, jlo - 1, k}), tag3(i, jlo - 1, k));
        }
        if (jhi < 7) {
          EXPECT_DOUBLE_EQ(a.at_halo({i, jhi + 1, k}), tag3(i, jhi + 1, k));
        }
      }
    }
  });
}

TEST(Doall3, CloneOfPlaneSliceIsIndependent) {
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    D3 a(ctx, pv, {3, 8, 8}, kDists, {0, 1, 0});
    a.fill([](std::array<int, 3> g) { return tag3(g[0], g[1], g[2]); });
    auto plane = a.fix(2, 5);
    if (plane.participating()) {
      auto copy = plane.clone();
      plane.for_each_owned([&](std::array<int, 2> g) {
        plane.at(g) = -1.0;  // mutate original through the slice
      });
      copy.for_each_owned([&](std::array<int, 2> g) {
        EXPECT_DOUBLE_EQ(copy.at(g), tag3(g[0], g[1], 5));
      });
    }
  });
}

TEST(Doall3, GatherGlobal3D) {
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    D3 a(ctx, pv, {2, 4, 4}, kDists);
    a.fill([](std::array<int, 3> g) { return tag3(g[0], g[1], g[2]); });
    auto full = gather_global(a);
    if (ctx.rank() == 0) {
      ASSERT_EQ(full.size(), 32u);
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 4; ++j) {
          for (int k = 0; k < 4; ++k) {
            EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>((i * 4 + j) * 4 + k)],
                             tag3(i, j, k));
          }
        }
      }
    }
  });
}

TEST(Doall3, BodyExceptionPropagatesAndAbortsRun) {
  Machine m(4);
  EXPECT_THROW(m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    D3 a(ctx, pv, {2, 4, 4}, kDists);
    doall3(a, Range{0, 1}, Range{0, 3}, Range{0, 3}, [&](int, int j, int) {
      if (j == a.own_lower(1) && ctx.rank() == 0) {
        throw Error("injected failure inside doall body");
      }
    });
    // Peers proceed to a collective that would deadlock without abort.
    Group g = pv.group(ctx.rank());
    barrier(ctx, g);
  }),
               Error);
}

}  // namespace
}  // namespace kali
