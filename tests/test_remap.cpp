#include "runtime/remap.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "machine/context.hpp"

namespace kali {
namespace {

double tag2(int i, int j) { return 100.0 * i + j; }

TEST(Remap, InjectEvenIndicesToCoarse) {
  // Restriction-style: coarse[K] = fine[2K], misaligned block boundaries.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> fine(ctx, pv, {17}, {DimDist::block_dist()});
    DistArray1<double> coarse(ctx, pv, {9}, {DimDist::block_dist()});
    fine.fill([](std::array<int, 1> g) { return 10.0 * g[0]; });
    copy_strided_dim(ctx, fine, coarse, 0, /*s_stride=*/2, /*s_off=*/0,
                     /*d_stride=*/1, /*d_off=*/0, 9);
    coarse.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_DOUBLE_EQ(coarse.at(g), 20.0 * g[0]);
    });
  });
}

TEST(Remap, SpreadCoarseToEvenFine) {
  // Interpolation-style: fine[2K] = coarse[K]; odd entries untouched.
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> coarse(ctx, pv, {5}, {DimDist::block_dist()});
    DistArray1<double> fine(ctx, pv, {9}, {DimDist::block_dist()});
    coarse.fill([](std::array<int, 1> g) { return 3.0 * g[0] + 1.0; });
    fine.fill_value(-1.0);
    copy_strided_dim(ctx, coarse, fine, 0, 1, 0, 2, 0, 5);
    fine.for_each_owned([&](std::array<int, 1> g) {
      if (g[0] % 2 == 0) {
        EXPECT_DOUBLE_EQ(fine.at(g), 3.0 * (g[0] / 2) + 1.0);
      } else {
        EXPECT_DOUBLE_EQ(fine.at(g), -1.0);
      }
    });
  });
}

TEST(Remap, OffsetsAndCount) {
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> src(ctx, pv, {12}, {DimDist::block_dist()});
    DistArray1<double> dst(ctx, pv, {12}, {DimDist::block_dist()});
    src.fill([](std::array<int, 1> g) { return 1.0 * g[0]; });
    dst.fill_value(0.0);
    // dst[3t + 1] = src[2t + 2] for t = 0..2.
    copy_strided_dim(ctx, src, dst, 0, 2, 2, 3, 1, 3);
    dst.for_each_owned([&](std::array<int, 1> g) {
      const int i = g[0];
      if (i == 1 || i == 4 || i == 7) {
        EXPECT_DOUBLE_EQ(dst.at(g), 2.0 * ((i - 1) / 3) + 2.0);
      } else {
        EXPECT_DOUBLE_EQ(dst.at(g), 0.0);
      }
    });
  });
}

TEST(Remap, MultidimensionalIdentityOffDim) {
  // 2-D: coarsen dim 1, dim 0 carried through unchanged.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
    D2 fine(ctx, pv, {5, 17}, dists);
    D2 coarse(ctx, pv, {5, 9}, dists);
    fine.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    copy_strided_dim(ctx, fine, coarse, 1, 2, 0, 1, 0, 9);
    coarse.for_each_owned([&](std::array<int, 2> g) {
      EXPECT_DOUBLE_EQ(coarse.at(g), tag2(g[0], 2 * g[1]));
    });
  });
}

TEST(Remap, CrossDistributionTransfer) {
  // Source distributed over the full view, destination over a single
  // processor sub-view (the multigrid agglomeration pattern).
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    ProcView pv1 = ProcView::grid1(1, pv.rank_of1(0));
    DistArray1<double> src(ctx, pv, {16}, {DimDist::block_dist()});
    DistArray1<double> dst(ctx, pv1, {16}, {DimDist::block_dist()});
    src.fill([](std::array<int, 1> g) { return 5.0 * g[0]; });
    copy_strided_dim(ctx, src, dst, 0, 1, 0, 1, 0, 16);
    if (dst.participating()) {
      for (int i = 0; i < 16; ++i) {
        EXPECT_DOUBLE_EQ(dst(i), 5.0 * i);
      }
    }
  });
}

TEST(Remap, PropertyBoxPathMatchesBinnedOracle1D) {
  // Differential test: the box fast path must reproduce the owner-binning
  // oracle element for element across strides, offsets, and rank counts
  // (misaligned blocks, blocks skipped entirely by wide strides, ...).
  struct Shape {
    int s_stride, s_off, d_stride, d_off, count, ns, nd;
  };
  const std::vector<Shape> shapes = {
      {2, 0, 1, 0, 9, 17, 9},    // restriction
      {1, 0, 2, 0, 5, 5, 9},     // interpolation
      {2, 2, 3, 1, 3, 12, 12},   // offsets
      {3, 1, 4, 2, 4, 14, 17},   // wide strides skip whole blocks
      {1, 0, 1, 0, 13, 13, 13},  // aligned identity
      {5, 0, 1, 3, 3, 11, 7},    // stride larger than most blocks
  };
  for (int p : {2, 3, 4, 5}) {
    for (std::size_t si = 0; si < shapes.size(); ++si) {
      const Shape& s = shapes[si];
      SCOPED_TRACE("p=" + std::to_string(p) + " shape=" + std::to_string(si));
      Machine m(p);
      m.run([&](Context& ctx) {
        ProcView pv = ProcView::grid1(p);
        DistArray1<double> src(ctx, pv, {s.ns}, {DimDist::block_dist()});
        DistArray1<double> fast(ctx, pv, {s.nd}, {DimDist::block_dist()});
        DistArray1<double> oracle(ctx, pv, {s.nd}, {DimDist::block_dist()});
        src.fill([](std::array<int, 1> g) { return 7.0 * g[0] + 0.5; });
        fast.fill_value(-9.0);
        oracle.fill_value(-9.0);
        copy_strided_dim(ctx, src, fast, 0, s.s_stride, s.s_off, s.d_stride,
                         s.d_off, s.count);
        copy_strided_dim_binned(ctx, src, oracle, 0, s.s_stride, s.s_off,
                                s.d_stride, s.d_off, s.count);
        fast.for_each_owned([&](std::array<int, 1> g) {
          EXPECT_DOUBLE_EQ(fast.at(g), oracle.at(g)) << "index " << g[0];
        });
      });
      EXPECT_EQ(m.stats().self_msgs(kTagRemap), 0u);
    }
  }
}

TEST(Remap, PropertyBoxPathMatchesBinnedOracle2D) {
  // 2-D with the strided dim distributed, star, or block on either side —
  // including layouts where the strided dim is the distributed one.
  struct Layout {
    std::string name;
    DistArray2<double>::Dists dists;
  };
  const std::vector<Layout> layouts = {
      {"star_block", {DimDist::star(), DimDist::block_dist()}},
      {"block_star", {DimDist::block_dist(), DimDist::star()}},
  };
  for (const auto& sl : layouts) {
    for (const auto& dl : layouts) {
      SCOPED_TRACE(sl.name + " -> " + dl.name);
      Machine m(4);
      m.run([&](Context& ctx) {
        ProcView pv = ProcView::grid1(4);
        DistArray2<double> src(ctx, pv, {5, 17}, sl.dists);
        DistArray2<double> fast(ctx, pv, {5, 9}, dl.dists);
        DistArray2<double> oracle(ctx, pv, {5, 9}, dl.dists);
        src.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
        fast.fill_value(-1.0);
        oracle.fill_value(-1.0);
        copy_strided_dim(ctx, src, fast, 1, 2, 0, 1, 0, 9);
        copy_strided_dim_binned(ctx, src, oracle, 1, 2, 0, 1, 0, 9);
        fast.for_each_owned([&](std::array<int, 2> g) {
          EXPECT_DOUBLE_EQ(fast.at(g), oracle.at(g));
          EXPECT_DOUBLE_EQ(fast.at(g), tag2(g[0], 2 * g[1]));
        });
      });
      EXPECT_EQ(m.stats().self_msgs(kTagRemap), 0u);
    }
  }
}

TEST(Remap, CyclicLayoutsFallBackToBinning) {
  // Any cyclic dim routes through the binning path; results must still be
  // exact and free of self-messages.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> src(ctx, pv, {21}, {DimDist::cyclic()});
    DistArray1<double> dst(ctx, pv, {11}, {DimDist::block_dist()});
    src.fill([](std::array<int, 1> g) { return 2.0 * g[0]; });
    copy_strided_dim(ctx, src, dst, 0, 2, 0, 1, 0, 11);
    dst.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_DOUBLE_EQ(dst.at(g), 4.0 * g[0]);
    });
  });
  EXPECT_EQ(m.stats().self_msgs(kTagRemap), 0u);
}

TEST(Remap, AlignedIdentityCopySendsNoMessages) {
  // Identical layout, stride 1, offset 0: every element's source and
  // destination owner coincide — the whole copy must stay off the network.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> src(ctx, pv, {16}, {DimDist::block_dist()});
    DistArray1<double> dst(ctx, pv, {16}, {DimDist::block_dist()});
    src.fill([](std::array<int, 1> g) { return 3.0 * g[0]; });
    copy_strided_dim(ctx, src, dst, 0, 1, 0, 1, 0, 16);
    dst.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_DOUBLE_EQ(dst.at(g), 3.0 * g[0]);
    });
  });
  EXPECT_EQ(m.stats().totals().msgs_sent, 0u);
}

TEST(Remap, HaloFusedMatchesSeparateRemapPlusExchange) {
  // The batched level switch: copy_strided_dim_halo on a fresh destination
  // must leave the *entire slab* (owned + ghost margins) bit-identical to
  // the separate copy_strided_dim + exchange_halo rounds, while sending
  // strictly fewer messages.  Both mg directions, several rank counts.
  struct Shape {
    int s_stride, d_stride, count, ns, nd;
  };
  const std::vector<Shape> shapes = {
      {1, 2, 13, 13, 25},  // interpolation: fine[2K] = coarse[K]
      {2, 1, 13, 25, 13},  // restriction onto a halo'd coarse array
  };
  for (int p : {2, 3, 4}) {
    for (std::size_t si = 0; si < shapes.size(); ++si) {
      const Shape& s = shapes[si];
      SCOPED_TRACE("p=" + std::to_string(p) + " shape=" + std::to_string(si));
      auto run = [&](bool fused) {
        Machine m(p);
        std::vector<std::vector<double>> slabs(static_cast<std::size_t>(p));
        m.run([&](Context& ctx) {
          ProcView pv = ProcView::grid1(p);
          using D2 = DistArray2<double>;
          const typename D2::Dists dists{DimDist::star(),
                                         DimDist::block_dist()};
          D2 src(ctx, pv, {5, s.ns}, dists);
          D2 dst(ctx, pv, {5, s.nd}, dists, {0, 1});
          src.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
          if (fused) {
            copy_strided_dim_halo(ctx, src, dst, 1, s.s_stride, 0,
                                  s.d_stride, 0, s.count);
          } else {
            copy_strided_dim(ctx, src, dst, 1, s.s_stride, 0, s.d_stride, 0,
                             s.count);
            dst.exchange_halo();
          }
          auto& slab = slabs[static_cast<std::size_t>(ctx.rank())];
          for (int i = 0; i < 5; ++i) {
            for (int j = dst.own_lower(1) - 1; j <= dst.own_upper(1) + 1;
                 ++j) {
              if (j >= 0 && j < s.nd) {
                slab.push_back(dst.at_halo({i, j}));
              }
            }
          }
        });
        return std::pair{slabs, m.stats().totals().msgs_sent};
      };
      const auto [slab_sep, msgs_sep] = run(false);
      const auto [slab_fused, msgs_fused] = run(true);
      EXPECT_EQ(slab_fused, slab_sep);  // bit-identical, ghosts included
      // Fusing never costs messages; when the remap itself communicates
      // (the interpolation direction: misaligned fine blocks), folding the
      // halo round in is a strict saving.
      EXPECT_LE(msgs_fused, msgs_sep);
      if (si == 0) {
        EXPECT_LT(msgs_fused, msgs_sep);
      }
      Machine m(p);  // and no self messages on the tag
      m.run([&](Context& ctx) {
        ProcView pv = ProcView::grid1(p);
        using D2 = DistArray2<double>;
        const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
        D2 src(ctx, pv, {5, s.ns}, dists);
        D2 dst(ctx, pv, {5, s.nd}, dists, {0, 1});
        src.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
        copy_strided_dim_halo(ctx, src, dst, 1, s.s_stride, 0, s.d_stride, 0,
                              s.count);
      });
      EXPECT_EQ(m.stats().self_msgs(kTagRemap), 0u);
    }
  }
}

TEST(Remap, HaloFusedCyclicLayoutThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::cyclic()});
    DistArray1<double> b(ctx, pv, {8}, {DimDist::block_dist()});
    copy_strided_dim_halo(ctx, a, b, 0, 1, 0, 1, 0, 8);
  }),
               Error);
}

TEST(Remap, ZeroStrideThrows) {
  // Both entry points validate arguments — the binned oracle included.
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    DistArray1<double> b(ctx, pv, {8}, {DimDist::block_dist()});
    copy_strided_dim(ctx, a, b, 0, 0, 0, 1, 0, 4);
  }),
               Error);
  Machine m2(2);
  EXPECT_THROW(m2.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    DistArray1<double> b(ctx, pv, {8}, {DimDist::block_dist()});
    copy_strided_dim_binned(ctx, a, b, 0, 0, 0, 1, 0, 4);
  }),
               Error);
}

TEST(Remap, ChargesSelfCopyInsideTheWireWindow) {
  // The redistribute shape of Redistribute.ChargesSelfCopyInsideTheWireWindow
  // as an identity strided copy: the strided copies charge the pack after
  // the sends and the self copy inside the wire window, then the batched
  // receive and its unpack.
  auto clocks_after = [](auto prog) {
    Machine m(2);
    std::vector<double> clocks(2);
    m.run([&](Context& ctx) {
      prog(ctx);
      clocks[static_cast<std::size_t>(ctx.rank())] = ctx.clock();
    });
    return clocks;
  };
  const auto got = clocks_after([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<double> rows(ctx, pv, {4, 4},
                            {DimDist::block_dist(), DimDist::star()});
    DistArray2<double> cols(ctx, pv, {4, 4},
                            {DimDist::star(), DimDist::block_dist()});
    rows.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    copy_strided_dim(ctx, rows, cols, 0, 1, 0, 1, 0, 4);
  });
  const auto want = clocks_after([](Context& ctx) {
    const int peer = 1 - ctx.rank();
    const std::vector<double> slab(4, 1.0);
    const double window_start = ctx.clock();
    ctx.send_span<double>(peer, kTagRemap, std::span<const double>(slab));
    ctx.compute(4.0);  // pack
    ctx.compute(4.0);  // self copy
    const RecvLane lane{peer, kTagRemap};
    ctx.recv_batch(std::span<const RecvLane>(&lane, 1), window_start,
                   [](std::size_t, Message) { return 4.0; });  // unpack
  });
  EXPECT_EQ(got, want);
}

TEST(Remap, ExtentMismatchOffDimThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
    D2 a(ctx, pv, {4, 8}, dists);
    D2 b(ctx, pv, {5, 8}, dists);  // off-dim extent differs
    copy_strided_dim(ctx, a, b, 1, 1, 0, 1, 0, 8);
  }),
               Error);
}

TEST(Remap, RangeOverflowThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    DistArray1<double> b(ctx, pv, {8}, {DimDist::block_dist()});
    copy_strided_dim(ctx, a, b, 0, 2, 0, 1, 0, 5);  // src needs index 8
  }),
               Error);
}

TEST(Remap, RangeCheckDoesNotOverflowInt) {
  // (count - 1) * stride = 65535 * 65536 wraps a 32-bit int negative; the
  // bound must still reject the copy with the range error.
  Machine m(2);
  try {
    m.run([](Context& ctx) {
      ProcView pv = ProcView::grid1(2);
      using D2 = DistArray2<double>;
      const typename D2::Dists dists{DimDist::block_dist(), DimDist::star()};
      D2 a(ctx, pv, {8, 8}, dists);
      D2 b(ctx, pv, {8, 8}, dists);
      copy_strided_dim(ctx, a, b, 0, 65536, 0, 65536, 0, 65536);
    });
    ADD_FAILURE() << "the out-of-range copy was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("copy_strided_dim: range out of bounds"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace kali
