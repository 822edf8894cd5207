#include "runtime/dist_array.hpp"

#include <gtest/gtest.h>

#include <string>

#include "machine/context.hpp"
#include "runtime/io.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

double tag2(int i, int j) { return 100.0 * i + j; }

/// Success iff fn throws kali::Error whose message contains `what`.
template <class Fn>
::testing::AssertionResult throws_with(Fn fn, const std::string& what) {
  try {
    fn();
  } catch (const Error& e) {
    if (std::string(e.what()).find(what) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "threw \"" << e.what() << "\", expected \"" << what << "\"";
  }
  return ::testing::AssertionFailure() << "did not throw (expected \"" << what
                                       << "\")";
}
double tag3(int i, int j, int k) { return 10000.0 * i + 100.0 * j + k; }

TEST(DistArray, Block1DOwnershipAndAccess) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {16}, {DimDist::block_dist()});
    EXPECT_TRUE(a.participating());
    EXPECT_EQ(a.local_count(0), 4);
    EXPECT_EQ(a.own_lower(0), ctx.rank() * 4);
    EXPECT_EQ(a.own_upper(0), ctx.rank() * 4 + 3);
    for (int g = a.own_lower(0); g <= a.own_upper(0); ++g) {
      a(g) = 2.0 * g;
    }
    EXPECT_TRUE(a.owns({a.own_lower(0)}));
    EXPECT_FALSE(a.owns({(a.own_lower(0) + 4) % 16}));
    EXPECT_DOUBLE_EQ(a(a.own_upper(0)), 2.0 * a.own_upper(0));
  });
}

TEST(DistArray, NonOwnedAccessThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    const int foreign = ctx.rank() == 0 ? 7 : 0;
    a(foreign) = 1.0;  // not owned: must throw
  }),
               Error);
}

TEST(DistArray, DistributedDimsMustMatchViewRank) {
  Machine m(4);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    // Only one distributed dim over a 2-D view: illegal (paper rule).
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::star()});
  }),
               Error);
}

TEST(DistArray, StarDimReplicatesExtent) {
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<double> a(ctx, pv, {3, 8},
                         {DimDist::star(), DimDist::block_dist()});
    EXPECT_EQ(a.local_count(0), 3);  // whole star extent everywhere
    EXPECT_EQ(a.local_count(1), 4);
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    for (int i = 0; i < 3; ++i) {
      for (int j = a.own_lower(1); j <= a.own_upper(1); ++j) {
        EXPECT_DOUBLE_EQ(a(i, j), tag2(i, j));
      }
    }
  });
}

TEST(DistArray, FillAndGatherGlobalRoundTrip) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {6, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto full = gather_global(a);
    if (ctx.rank() == 0) {
      ASSERT_EQ(full.size(), 48u);
      for (int i = 0; i < 6; ++i) {
        for (int j = 0; j < 8; ++j) {
          EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(i * 8 + j)], tag2(i, j));
        }
      }
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
}

TEST(DistArray, GatherAllReplicatesEverywhere) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {12}, {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 2.5 * g[0]; });
    auto full = gather_all(a);
    ASSERT_EQ(full.size(), 12u);  // every member, not just the root
    for (int g = 0; g < 12; ++g) {
      EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(g)], 2.5 * g);
    }
  });
}

TEST(DistArray, BlockCyclic2DRoundTrip) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {10, 12},
                         {DimDist::block_cyclic(3), DimDist::cyclic()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto full = gather_global(a);
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        for (int j = 0; j < 12; ++j) {
          EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(i * 12 + j)],
                           tag2(i, j));
        }
      }
    }
  });
}

TEST(DistArray, CyclicDistributionGather) {
  Machine m(3);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<int> a(ctx, pv, {10}, {DimDist::cyclic()});
    a.fill([](std::array<int, 1> g) { return 7 * g[0]; });
    auto full = gather_global(a);
    if (ctx.rank() == 0) {
      for (int g = 0; g < 10; ++g) {
        EXPECT_EQ(full[static_cast<std::size_t>(g)], 7 * g);
      }
    }
  });
}

TEST(DistArray, HaloExchange1D) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {16}, {DimDist::block_dist()}, {2});
    a.fill([](std::array<int, 1> g) { return 3.0 * g[0]; });
    a.exchange_halo();
    const int lo = a.own_lower(0);
    const int hi = a.own_upper(0);
    if (lo > 0) {
      EXPECT_DOUBLE_EQ(a.at_halo({lo - 1}), 3.0 * (lo - 1));
      EXPECT_DOUBLE_EQ(a.at_halo({lo - 2}), 3.0 * (lo - 2));
    }
    if (hi < 15) {
      EXPECT_DOUBLE_EQ(a.at_halo({hi + 1}), 3.0 * (hi + 1));
      EXPECT_DOUBLE_EQ(a.at_halo({hi + 2}), 3.0 * (hi + 2));
    }
  });
}

TEST(DistArray, HaloExchange2DIncludesCorners) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {1, 1});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    a.exchange_halo(HaloCorners::kYes);
    // Every interior ghost (including diagonal corners) must be valid.
    const int ilo = a.own_lower(0), ihi = a.own_upper(0);
    const int jlo = a.own_lower(1), jhi = a.own_upper(1);
    for (int i = std::max(0, ilo - 1); i <= std::min(7, ihi + 1); ++i) {
      for (int j = std::max(0, jlo - 1); j <= std::min(7, jhi + 1); ++j) {
        EXPECT_DOUBLE_EQ(a.at_halo({i, j}), tag2(i, j)) << i << "," << j;
      }
    }
  });
}

TEST(DistArray, HaloExchangeStarModeFillsEdgesInOneRound) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {1, 1});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    a.exchange_halo();  // HaloCorners::kNo
    // Face ghosts (sharing a row or column with the slab) must be valid.
    const int ilo = a.own_lower(0), ihi = a.own_upper(0);
    const int jlo = a.own_lower(1), jhi = a.own_upper(1);
    for (int j = jlo; j <= jhi; ++j) {
      if (ilo > 0) {
        EXPECT_DOUBLE_EQ(a.at_halo({ilo - 1, j}), tag2(ilo - 1, j));
      }
      if (ihi < 7) {
        EXPECT_DOUBLE_EQ(a.at_halo({ihi + 1, j}), tag2(ihi + 1, j));
      }
    }
    for (int i = ilo; i <= ihi; ++i) {
      if (jlo > 0) {
        EXPECT_DOUBLE_EQ(a.at_halo({i, jlo - 1}), tag2(i, jlo - 1));
      }
      if (jhi < 7) {
        EXPECT_DOUBLE_EQ(a.at_halo({i, jhi + 1}), tag2(i, jhi + 1));
      }
    }
  });
  // One latency round: every processor sends its 2 faces (interior 2x2
  // grid corner -> 2 neighbours each).
  EXPECT_EQ(m.stats().totals().msgs_sent, 8u);
}

// Frame sentinel: a value unique per (writing rank, global position), so
// tests can tell *whose* boundary frame a corner-mode exchange propagated.
double frame_val(int rank, int i, int j) {
  return 90000.0 + 1000.0 * rank + 20.0 * (i + 2) + (j + 2);
}

TEST(DistArray, CornerHaloMatchesDirectionOracle) {
  // 3x3 grid, mixed halo widths, uneven blocks, frame sentinels.  After
  // the single scheduled corner exchange, every margin cell must hold what
  // the direction algebra prescribes: the owner's value for in-domain
  // ghosts (diagonals included), the source rank's frame sentinel where
  // the direction leaves the domain, and this rank's own untouched
  // sentinel where no source exists — exactly what the old serialized
  // per-dim wide rounds produced.
  const int n0 = 13, n1 = 11;
  Machine m(9);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(3, 3);
    DistArray2<double> a(ctx, pv, {n0, n1},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {2, 1});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    const int ilo = a.own_lower(0), ihi = a.own_upper(0);
    const int jlo = a.own_lower(1), jhi = a.own_upper(1);
    for (int i = ilo - 2; i <= ihi + 2; ++i) {
      for (int j = jlo - 1; j <= jhi + 1; ++j) {
        if (i < 0 || i >= n0 || j < 0 || j >= n1) {
          a.frame({i, j}) = frame_val(ctx.rank(), i, j);
        }
      }
    }
    a.exchange_halo(HaloCorners::kYes);
    const auto coord = *pv.coord_of(ctx.rank());
    for (int i = ilo - 2; i <= ihi + 2; ++i) {
      for (int j = jlo - 1; j <= jhi + 1; ++j) {
        const int di = i < ilo ? -1 : (i > ihi ? 1 : 0);
        const int dj = j < jlo ? -1 : (j > jhi ? 1 : 0);
        if (di == 0 && dj == 0) {
          continue;  // owned
        }
        auto qc = coord;
        bool any_e = false;
        if (di != 0 && coord[0] + di >= 0 && coord[0] + di < 3) {
          qc[0] += di;
          any_e = true;
        }
        if (dj != 0 && coord[1] + dj >= 0 && coord[1] + dj < 3) {
          qc[1] += dj;
          any_e = true;
        }
        const bool in_domain = i >= 0 && i < n0 && j >= 0 && j < n1;
        double expect;
        if (!any_e) {
          expect = frame_val(ctx.rank(), i, j);  // pure frame: untouched
        } else if (in_domain) {
          expect = tag2(i, j);  // the diagonal/face owner's value
        } else {
          expect = frame_val(pv.rank_of(qc), i, j);  // source's frame
        }
        EXPECT_DOUBLE_EQ(a.at_halo({i, j}), expect) << i << "," << j;
      }
    }
  });
}

TEST(DistArray, CornerHalo3DDiagonalGhostsValid) {
  // The mg3 shape: (*, block, block) over a 2-D grid, halo on both
  // distributed dims.  All in-domain ghosts — edges and corners across the
  // two distributed dims, star dim replicated — must be valid after one
  // scheduled exchange.
  const int n = 8;
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray3<double> a(
        ctx, pv, {3, n, n},
        {DimDist::star(), DimDist::block_dist(), DimDist::block_dist()},
        {0, 1, 1});
    a.fill([](std::array<int, 3> g) { return tag3(g[0], g[1], g[2]); });
    a.exchange_halo(HaloCorners::kYes);
    const int jlo = a.own_lower(1), jhi = a.own_upper(1);
    const int klo = a.own_lower(2), khi = a.own_upper(2);
    for (int i = 0; i < 3; ++i) {
      for (int j = std::max(0, jlo - 1); j <= std::min(n - 1, jhi + 1); ++j) {
        for (int k = std::max(0, klo - 1); k <= std::min(n - 1, khi + 1); ++k) {
          EXPECT_DOUBLE_EQ(a.at_halo({i, j, k}), tag3(i, j, k))
              << i << "," << j << "," << k;
        }
      }
    }
  });
}

TEST(DistArray, CornerHaloNoSelfMessagesAnyOrder) {
  for (IssueOrder order :
       {IssueOrder::kRoundSchedule, IssueOrder::kPeerOrder}) {
    SCOPED_TRACE(static_cast<int>(order));
    Machine m(9);
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(3, 3);
      DistArray2<double> a(ctx, pv, {12, 12},
                           {DimDist::block_dist(), DimDist::block_dist()},
                           {1, 1});
      a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      a.exchange_halo(HaloCorners::kYes, order);
      const int ilo = a.own_lower(0), ihi = a.own_upper(0);
      const int jlo = a.own_lower(1), jhi = a.own_upper(1);
      for (int i = std::max(0, ilo - 1); i <= std::min(11, ihi + 1); ++i) {
        for (int j = std::max(0, jlo - 1); j <= std::min(11, jhi + 1); ++j) {
          EXPECT_DOUBLE_EQ(a.at_halo({i, j}), tag2(i, j)) << i << "," << j;
        }
      }
    });
    const MachineStats st = m.stats();
    EXPECT_EQ(st.self_msgs(kTagHalo), 0u);
    EXPECT_EQ(st.self_msgs_total(), 0u);
  }
}

TEST(DistArray, CornerHaloSendsOnePackPerNeighbourPair) {
  // Wire shape of the corner exchange on the hardest corner scenario we
  // have (3x3 grid, mixed halo widths, uneven blocks): every message is a
  // kTagHalo pack, one per ordered pair of king-adjacent grid
  // neighbours (the pure-E full-delta piece guarantees every such pair
  // communicates): 4 corners x 3 + 4 edges x 5 + 1 center x 8 = 40.  Cell
  // contents are checked by CornerHaloMatchesDirectionOracle.
  Machine m(9);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(3, 3);
    DistArray2<double> a(ctx, pv, {13, 11},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {2, 1});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    a.exchange_halo(HaloCorners::kYes);
  });
  const MachineStats st = m.stats();
  EXPECT_EQ(st.sent_msgs(kTagHalo), 40u);
  EXPECT_EQ(st.totals().msgs_sent, 40u);
  EXPECT_TRUE(st.unmatched_by_tag().empty());
}

TEST(DistArray, CornerHaloBitIdenticalUnderStoreForwardContention) {
  // Repeated 16-thread contended runs must produce bit-identical clocks
  // and bit-identical cell contents (the scheduled exchange inherits the
  // machine model's determinism design).
  auto run_once = [&]() {
    MachineConfig cfg;
    cfg.topology = Topology::kMesh2D;
    cfg.link_contention = LinkContention::kStoreForward;
    Machine m(16, cfg);
    std::vector<std::vector<double>> slabs(16);
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(4, 4);
      DistArray2<double> a(ctx, pv, {32, 32},
                           {DimDist::block_dist(), DimDist::block_dist()},
                           {1, 1});
      a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      a.exchange_halo(HaloCorners::kYes);
      auto& s = slabs[static_cast<std::size_t>(ctx.rank())];
      for (int i = a.own_lower(0) - 1; i <= a.own_upper(0) + 1; ++i) {
        for (int j = a.own_lower(1) - 1; j <= a.own_upper(1) + 1; ++j) {
          s.push_back(a.at_halo({i, j}));
        }
      }
    });
    return std::pair{m.stats().clocks, slabs};
  };
  const auto [clocks0, slabs0] = run_once();
  for (int rep = 0; rep < 3; ++rep) {
    const auto [clocks, slabs] = run_once();
    EXPECT_EQ(clocks, clocks0) << "rep " << rep;  // exact, not approximate
    EXPECT_EQ(slabs, slabs0) << "rep " << rep;
  }
}

TEST(DistArray, CopyInSnapshotsOldValues) {
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()}, {1});
    a.fill([](std::array<int, 1> g) { return 1.0 * g[0]; });
    auto old = a.copy_in();
    // Mutate the original; the snapshot must be unaffected (copy-in).
    a.fill([](std::array<int, 1>) { return -1.0; });
    for (int g = old.own_lower(0); g <= old.own_upper(0); ++g) {
      EXPECT_DOUBLE_EQ(old(g), 1.0 * g);
    }
    // Snapshot's halo carries the *old* neighbour values.
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(old.at_halo({3}), 3.0);
    }
  });
}

TEST(DistArray, FixDistributedDimSlicesViewToOwners) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 6},
                         {DimDist::block_dist(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    // Row 5 lives on processor row 1 (blocks of 4): procs (1,0) and (1,1).
    auto row = a.fix(0, 5);
    EXPECT_EQ(row.view().ndims(), 1);
    EXPECT_EQ(row.view().extent(0), 2);
    const bool should_own = pv.coord_of(ctx.rank()).value()[0] == 1;
    EXPECT_EQ(row.participating(), should_own);
    if (should_own) {
      for (int j = row.own_lower(0); j <= row.own_upper(0); ++j) {
        EXPECT_DOUBLE_EQ(row(j), tag2(5, j));
      }
      // Writes through the slice hit the parent storage.
      row(row.own_lower(0)) = -7.0;
      EXPECT_DOUBLE_EQ(a(5, row.own_lower(0)), -7.0);
    }
  });
}

TEST(DistArray, FixStarDimKeepsWholeView) {
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<double> a(ctx, pv, {5, 8},
                         {DimDist::star(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto line = a.fix(0, 3);  // u(3, *): still distributed over both procs
    EXPECT_TRUE(line.participating());
    EXPECT_EQ(line.view().count(), 2);
    for (int j = line.own_lower(0); j <= line.own_upper(0); ++j) {
      EXPECT_DOUBLE_EQ(line(j), tag2(3, j));
    }
  });
}

TEST(DistArray, Fix3DPlaneMatchesPaperMg3Slicing) {
  // u(0:nx, 0:ny, 0:nz) dist (*, block, block) over procs(px, py);
  // u(*, *, k) must be a 2-D array dist (*, block) over procs(*, kp).
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray3<double> u(
        ctx, pv, {4, 8, 8},
        {DimDist::star(), DimDist::block_dist(), DimDist::block_dist()});
    u.fill([](std::array<int, 3> g) { return tag3(g[0], g[1], g[2]); });
    const int k = 6;  // owner column: 6/4 = 1
    auto plane = u.fix(2, k);
    EXPECT_EQ(plane.view().ndims(), 1);
    EXPECT_EQ(plane.view().extent(0), 2);
    const bool in_col = pv.coord_of(ctx.rank()).value()[1] == 1;
    EXPECT_EQ(plane.participating(), in_col);
    if (in_col) {
      EXPECT_EQ(plane.dist_kind(0), DistKind::kStar);
      EXPECT_EQ(plane.dist_kind(1), DistKind::kBlock);
      for (int i = 0; i < 4; ++i) {
        for (int j = plane.own_lower(1); j <= plane.own_upper(1); ++j) {
          EXPECT_DOUBLE_EQ(plane(i, j), tag3(i, j, k));
        }
      }
      // Further fixing a line: u(*, j, k) is owned by a single processor.
      auto line = plane.fix(1, 1);
      EXPECT_EQ(line.view().count(), 1);
      if (line.participating()) {
        EXPECT_DOUBLE_EQ(line(2), tag3(2, 1, k));
      }
    }
  });
}

TEST(DistArray, LocalizeBlockRangeBecomesStar) {
  // Listing 8: v(lo:hi, *) where lo:hi is one processor row's block.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> v(ctx, pv, {8, 6},
                         {DimDist::block_dist(), DimDist::block_dist()});
    v.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto mine = v.localize(0, 4, 4);  // rows 4..7 = proc row 1's block
    const bool in_row = pv.coord_of(ctx.rank()).value()[0] == 1;
    EXPECT_EQ(mine.participating(), in_row);
    EXPECT_EQ(mine.extent(0), 4);
    EXPECT_EQ(mine.dist_kind(0), DistKind::kStar);
    if (in_row) {
      EXPECT_EQ(mine.view().count(), 2);
      // Global index 0 of the localized dim = old global 4.
      for (int j = mine.own_lower(1); j <= mine.own_upper(1); ++j) {
        EXPECT_DOUBLE_EQ(mine(0, j), tag2(4, j));
        EXPECT_DOUBLE_EQ(mine(3, j), tag2(7, j));
      }
    }
  });
}

TEST(DistArray, LocalizeAcrossOwnersThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    (void)a.localize(0, 2, 4);  // spans both owners
  }),
               Error);
}

TEST(DistArray, StridedLocalSpanOfRowSlice) {
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<double> a(ctx, pv, {4, 8},
                         {DimDist::star(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto row = a.fix(0, 2);  // 1-D, block over 2 procs, strided in parent
    auto s = row.local_strided();
    ASSERT_EQ(s.n, 4);
    for (int l = 0; l < s.n; ++l) {
      EXPECT_DOUBLE_EQ(s[l], tag2(2, row.own_lower(0) + l));
    }
    s[0] = -9.0;
    EXPECT_DOUBLE_EQ(a(2, row.own_lower(0)), -9.0);
  });
}

TEST(DistArray, HaloRequiresBlockDim) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::cyclic()}, {1});
  }),
               Error);
}

TEST(DistArray, NegativeHaloRejected) {
  // A negative width would size the slab short and send faces read past
  // it; the constructor rejects it before anything is allocated.
  Machine m(4);
  EXPECT_TRUE(throws_with(
      [&] {
        m.run([](Context& ctx) {
          DistArray2<double> a(ctx, ProcView::grid2(2, 2), {8, 8},
                               {DimDist::block_dist(), DimDist::block_dist()},
                               {-1, 1});
          a.exchange_halo();
        });
      },
      "halo width must be non-negative"));
}

TEST(DistArray, BoundaryFrameReadsZeroAndIsWritable) {
  // Listing 2 semantics: the ghost frame extends past the global domain at
  // physical boundaries, carrying Dirichlet data (zero by default).
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()}, {1});
    a.fill([](std::array<int, 1> g) { return 1.0 * g[0]; });
    a.exchange_halo();
    if (ctx.rank() == 0) {
      EXPECT_DOUBLE_EQ(a.at_halo({-1}), 0.0);  // frame cell, untouched
      a.frame({-1}) = 7.5;                     // impose a boundary value
      EXPECT_DOUBLE_EQ(a.at_halo({-1}), 7.5);
    } else {
      EXPECT_DOUBLE_EQ(a.at_halo({8}), 0.0);
    }
    // Beyond the frame is still an error.
    EXPECT_THROW((void)a.at_halo({ctx.rank() == 0 ? -2 : 9}), Error);
  });
}

// The element accessors check range and ownership on every call.  Block and
// star dims take the cached-lower-bound range test, cyclic and block-cyclic
// dims the DimMap algebra; both must agree with owns() index for index.
TEST(DistArray, AccessChecksMatchOwnershipEveryDistKind) {
  // Extent 10 on 4 ranks: block counts 3,3,3,1; cyclic 3,3,2,2;
  // block-cyclic(2) 4,2,2,2.
  for (const DimDist dist : {DimDist::block_dist(), DimDist::cyclic(),
                             DimDist::block_cyclic(2)}) {
    SCOPED_TRACE(to_string(dist.kind));
    Machine m(4);
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(4);
      DistArray1<double> a(ctx, pv, {10}, {dist});
      a.fill([](std::array<int, 1> g) { return 1.0 * g[0]; });
      const DistArray1<double>& ca = a;
      const char* halo_miss = dist.kind == DistKind::kBlock
                                  ? "at_halo: outside slab+halo"
                                  : "at_halo: not owned";
      int visited = 0;
      for (int g = -3; g < 13; ++g) {
        if (a.owns({g})) {
          ++visited;
          EXPECT_DOUBLE_EQ(a.at({g}), 1.0 * g);
          EXPECT_DOUBLE_EQ(ca.at({g}), 1.0 * g);
          EXPECT_DOUBLE_EQ(a.at_halo({g}), 1.0 * g);
          EXPECT_DOUBLE_EQ(a.frame({g}), 1.0 * g);
          continue;
        }
        const char* miss = g < 0 || g >= 10 ? "index out of range" : "index not owned";
        EXPECT_TRUE(throws_with([&] { (void)a.at({g}); }, miss)) << "g = " << g;
        EXPECT_TRUE(throws_with([&] { (void)ca.at({g}); }, miss)) << "g = " << g;
        EXPECT_TRUE(throws_with([&] { (void)a.at_halo({g}); }, halo_miss))
            << "g = " << g;
        EXPECT_TRUE(throws_with([&] { (void)a.frame({g}); }, halo_miss))
            << "g = " << g;
      }
      EXPECT_EQ(visited, a.local_count(0));
    });
  }
}

TEST(DistArray, AccessChecksOnStarDim) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray2<double> a(ctx, pv, {5, 8},
                         {DimDist::star(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    const int j = a.own_lower(1);
    for (int i = 0; i < 5; ++i) {
      EXPECT_DOUBLE_EQ(a(i, j), tag2(i, j));
      EXPECT_DOUBLE_EQ(a.at_halo({i, j}), tag2(i, j));
    }
    for (const int i : {-1, 5, 6}) {
      EXPECT_TRUE(throws_with([&] { (void)a(i, j); }, "index out of range"));
      EXPECT_TRUE(throws_with([&] { (void)a.at_halo({i, j}); }, "at_halo: not owned"));
      EXPECT_TRUE(throws_with([&] { (void)a.frame({i, j}); }, "at_halo: not owned"));
    }
  });
}

TEST(DistArray, AccessChecksOnRankOwningNothing) {
  // Extent 2 on 4 ranks: blocks of 1, so ranks 2 and 3 own no elements.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray2<double> a(ctx, pv, {2, 3},
                         {DimDist::block_dist(), DimDist::star()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    int visited = 0;
    a.for_each_owned([&](std::array<int, 2>) { ++visited; });
    EXPECT_EQ(visited, ctx.rank() < 2 ? 3 : 0);
    for (int i = 0; i < 2; ++i) {
      if (i == ctx.rank()) {
        EXPECT_DOUBLE_EQ(a(i, 1), tag2(i, 1));
      } else {
        EXPECT_TRUE(throws_with([&] { (void)a(i, 1); }, "index not owned"));
        EXPECT_TRUE(throws_with([&] { (void)a.at_halo({i, 1}); },
                                "at_halo: outside slab+halo"));
      }
    }
    if (ctx.rank() >= 2) {
      EXPECT_EQ(a.local_count(0), 0);
      EXPECT_TRUE(throws_with([&] { (void)a(2, 0); }, "index out of range"));
      EXPECT_TRUE(throws_with([&] { (void)a(-1, 0); }, "index out of range"));
    }
  });
}

TEST(DistArray, AtHaloOnePastWidthThrows) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()}, {2, 1});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    a.exchange_halo();
    const int lo0 = a.own_lower(0), hi0 = a.own_upper(0);
    const int lo1 = a.own_lower(1), hi1 = a.own_upper(1);
    const char* miss = "at_halo: outside slab+halo";
    // Dim 0, halo width 2: the ghost planes are readable and writable ...
    for (const int i : {lo0 - 2, lo0 - 1, hi0 + 1, hi0 + 2}) {
      EXPECT_NO_THROW((void)a.at_halo({i, lo1}));
      EXPECT_NO_THROW((void)a.frame({i, hi1}));
      // ... but never through the owned-only accessor.
      EXPECT_TRUE(throws_with([&] { (void)a(i, lo1); }, "index"));
    }
    // ... and one past the width on either side is not.
    for (const int i : {lo0 - 3, hi0 + 3}) {
      EXPECT_TRUE(throws_with([&] { (void)a.at_halo({i, lo1}); }, miss));
      EXPECT_TRUE(throws_with([&] { (void)a.frame({i, lo1}); }, miss));
    }
    // Dim 1, halo width 1.
    for (const int j : {lo1 - 1, hi1 + 1}) {
      EXPECT_NO_THROW((void)a.at_halo({lo0, j}));
    }
    for (const int j : {lo1 - 2, hi1 + 2}) {
      EXPECT_TRUE(throws_with([&] { (void)a.at_halo({lo0, j}); }, miss));
      EXPECT_TRUE(throws_with([&] { (void)a.frame({hi0, j}); }, miss));
    }
    // A ghost from a real neighbour holds that neighbour's owned value.
    if (lo0 > 0) {
      EXPECT_DOUBLE_EQ(a.at_halo({lo0 - 2, lo1}), tag2(lo0 - 2, lo1));
    }
  });
}

TEST(DistArray, AccessChecksThroughFixAndLocalizeViews) {
  Machine m(4);
  m.run([](Context& ctx) {
    {
      ProcView pv = ProcView::grid2(2, 2);
      DistArray2<double> a(ctx, pv, {8, 6},
                           {DimDist::block_dist(), DimDist::block_dist()});
      a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      const int i = a.own_lower(0) + 1;
      auto row = a.fix(0, i);  // 1-D, block over this processor row
      ASSERT_TRUE(row.participating());
      for (int j = 0; j < 6; ++j) {
        if (j >= a.own_lower(1) && j <= a.own_upper(1)) {
          EXPECT_DOUBLE_EQ(row(j), tag2(i, j));
        } else {
          EXPECT_TRUE(throws_with([&] { (void)row(j); }, "index not owned"));
        }
      }
      EXPECT_TRUE(throws_with([&] { (void)row(-1); }, "index out of range"));
      EXPECT_TRUE(throws_with([&] { (void)row(6); }, "index out of range"));
      // A slice this rank does not own refuses every access.
      auto other = a.fix(0, (i + 4) % 8);
      EXPECT_FALSE(other.participating());
      EXPECT_TRUE(throws_with([&] { (void)other(a.own_lower(1)); },
                              "requires view membership"));
    }
    {
      // (cyclic, block): fixing the block dim leaves a cyclic line.
      ProcView pv = ProcView::grid2(2, 2);
      DistArray2<double> a(ctx, pv, {7, 6},
                           {DimDist::cyclic(), DimDist::block_dist()});
      a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      const int j = a.own_upper(1);
      auto col = a.fix(1, j);
      ASSERT_TRUE(col.participating());
      for (int i = 0; i < 7; ++i) {
        if (col.owns({i})) {
          EXPECT_DOUBLE_EQ(col(i), tag2(i, j));
        } else {
          EXPECT_TRUE(throws_with([&] { (void)col(i); }, "index not owned"));
          EXPECT_TRUE(throws_with([&] { (void)col.at_halo({i}); }, "at_halo: not owned"));
        }
      }
    }
    {
      // Localizing this rank's block of a (block, *) array gives a star dim
      // whose index 0 is the old global `lo`.
      ProcView pv = ProcView::grid1(4);
      DistArray2<double> a(ctx, pv, {12, 5},
                           {DimDist::block_dist(), DimDist::star()});
      a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      const int lo = a.own_lower(0) + 1;
      const int len = a.local_count(0) - 1;
      auto mine = a.localize(0, lo, len);
      ASSERT_TRUE(mine.participating());
      for (int k = 0; k < len; ++k) {
        EXPECT_DOUBLE_EQ(mine(k, 4), tag2(lo + k, 4));
        EXPECT_DOUBLE_EQ(mine.at_halo({k, 4}), tag2(lo + k, 4));
      }
      for (const int k : {-1, len}) {
        EXPECT_TRUE(throws_with([&] { (void)mine(k, 0); }, "index out of range"));
        EXPECT_TRUE(throws_with([&] { (void)mine.at_halo({k, 0}); }, "at_halo: not owned"));
      }
      // Localizing a star dim narrows it the same way.
      auto cols = mine.localize(1, 2, 2);
      EXPECT_DOUBLE_EQ(cols(0, 0), tag2(lo, 2));
      EXPECT_DOUBLE_EQ(cols(len - 1, 1), tag2(lo + len - 1, 3));
      EXPECT_TRUE(throws_with([&] { (void)cols(0, 2); }, "index out of range"));
      EXPECT_TRUE(throws_with([&] { (void)cols(0, -1); }, "index out of range"));
    }
  });
}

}  // namespace
}  // namespace kali
