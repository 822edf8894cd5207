#include "machine/proc_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

TEST(ProcView, Grid1Basics) {
  ProcView v = ProcView::grid1(4);
  EXPECT_EQ(v.ndims(), 1);
  EXPECT_EQ(v.extent(0), 4);
  EXPECT_EQ(v.count(), 4);
  EXPECT_EQ(v.rank_of1(2), 2);
  EXPECT_TRUE(v.contains(3));
  EXPECT_FALSE(v.contains(4));
}

TEST(ProcView, Grid2RowMajor) {
  ProcView v = ProcView::grid2(2, 3);
  EXPECT_EQ(v.count(), 6);
  EXPECT_EQ(v.rank_of2(0, 0), 0);
  EXPECT_EQ(v.rank_of2(0, 2), 2);
  EXPECT_EQ(v.rank_of2(1, 0), 3);
  EXPECT_EQ(v.rank_of2(1, 2), 5);
  auto c = v.coord_of(4);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ((*c)[0], 1);
  EXPECT_EQ((*c)[1], 1);
}

TEST(ProcView, Grid3Coordinates) {
  ProcView v = ProcView::grid3(2, 2, 2);
  EXPECT_EQ(v.count(), 8);
  EXPECT_EQ(v.rank_of({1, 1, 1}), 7);
  EXPECT_EQ(v.rank_of({1, 0, 1}), 5);
  auto c = v.coord_of(6);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ((*c)[0], 1);
  EXPECT_EQ((*c)[1], 1);
  EXPECT_EQ((*c)[2], 0);
}

TEST(ProcView, FixRowProducesRowSlice) {
  // procs(ip, *): fix dim 0.
  ProcView v = ProcView::grid2(3, 4);
  ProcView row = v.fix(0, 1);
  EXPECT_EQ(row.ndims(), 1);
  EXPECT_EQ(row.extent(0), 4);
  EXPECT_EQ(row.ranks(), (std::vector<int>{4, 5, 6, 7}));
}

TEST(ProcView, FixColumnProducesStridedSlice) {
  // procs(*, jp): fix dim 1.
  ProcView v = ProcView::grid2(3, 4);
  ProcView col = v.fix(1, 2);
  EXPECT_EQ(col.ndims(), 1);
  EXPECT_EQ(col.extent(0), 3);
  EXPECT_EQ(col.ranks(), (std::vector<int>{2, 6, 10}));
  EXPECT_TRUE(col.contains(6));
  EXPECT_FALSE(col.contains(5));
  auto c = col.coord_of(10);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ((*c)[0], 2);
}

TEST(ProcView, SubRange) {
  ProcView v = ProcView::grid1(8);
  ProcView s = v.sub(0, 2, 3);
  EXPECT_EQ(s.ranks(), (std::vector<int>{2, 3, 4}));
  EXPECT_THROW((void)v.sub(0, 6, 3), Error);
}

TEST(ProcView, LinearIndexMatchesRanksOrder) {
  ProcView v = ProcView::grid2(2, 3);
  auto rks = v.ranks();
  for (std::size_t i = 0; i < rks.size(); ++i) {
    EXPECT_EQ(v.linear_index_of(rks[i]), static_cast<int>(i));
  }
}

TEST(ProcView, NestedSlicingComposes) {
  // 3-D grid; fix z then y: must land on the expected machine ranks.
  ProcView v = ProcView::grid3(2, 3, 4);
  ProcView plane = v.fix(2, 1);  // (x, y) with z=1
  EXPECT_EQ(plane.ndims(), 2);
  EXPECT_EQ(plane.rank_of2(1, 2), v.rank_of({1, 2, 1}));
  ProcView line = plane.fix(1, 0);  // x with y=0, z=1
  EXPECT_EQ(line.ndims(), 1);
  EXPECT_EQ(line.rank_of1(1), v.rank_of({1, 0, 1}));
}

TEST(ProcView, CoordRoundTripOnSlices) {
  ProcView v = ProcView::grid3(2, 3, 2).fix(1, 2);
  for (int r : v.ranks()) {
    auto c = v.coord_of(r);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(v.rank_of(*c), r);
  }
}

TEST(ProcView, FixOutOfRangeThrows) {
  ProcView v = ProcView::grid2(2, 2);
  EXPECT_THROW((void)v.fix(0, 2), Error);
  EXPECT_THROW((void)v.fix(2, 0), Error);
}

TEST(ProcView, EmptyViewContainsNothing) {
  ProcView v;
  EXPECT_EQ(v.ndims(), 0);
  EXPECT_EQ(v.count(), 0);
  EXPECT_FALSE(v.contains(0));
}

TEST(ProcView, RankAtInvertsLinearIndex) {
  ProcView v = ProcView::grid3(2, 3, 4, 5).fix(1, 1).sub(1, 1, 2);
  EXPECT_EQ(v.ranks(), (std::vector<int>{10, 11, 22, 23}));
  EXPECT_EQ(v.rank_at(2), 22);
  EXPECT_EQ(v.linear_index_of(22), 2);
  EXPECT_THROW((void)v.rank_at(4), Error);
  EXPECT_THROW((void)v.rank_at(-1), Error);
  EXPECT_THROW((void)v.linear_index_of(12), Error);
}

/// A random view as the runtime builds them: a grid1/2/3 root with a
/// random base, then a random chain of fix and sub slices.
ProcView random_view(Rng& rng) {
  const int nd = rng.uniform_int(1, 3);
  const int base = rng.uniform_int(0, 9);
  const int a = rng.uniform_int(1, 5);
  const int b = rng.uniform_int(1, 5);
  const int c = rng.uniform_int(1, 5);
  ProcView v = nd == 1   ? ProcView::grid1(a, base)
               : nd == 2 ? ProcView::grid2(a, b, base)
                         : ProcView::grid3(a, b, c, base);
  for (int step = rng.uniform_int(0, 3); step > 0; --step) {
    const int d = rng.uniform_int(0, v.ndims() - 1);
    const int e = v.extent(d);
    if (rng.uniform_int(0, 1) == 0) {
      v = v.fix(d, rng.uniform_int(0, e - 1));
    } else {
      const int lo = rng.uniform_int(0, e - 1);
      v = v.sub(d, lo, rng.uniform_int(1, e - lo));
    }
  }
  return v;
}

TEST(ProcView, RandomSlicesKeepViewArithmeticConsistent) {
  // The collectives index members by view arithmetic alone, and the dense
  // exchanges take ranks() as their sorted communicator; both rest on
  // these properties holding for every view the slicing operations build.
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const ProcView v = random_view(rng);
    SCOPED_TRACE(trial);
    const std::vector<int> rks = v.ranks();
    ASSERT_EQ(static_cast<int>(rks.size()), v.count());
    for (int i = 0; i < v.count(); ++i) {
      const auto ui = static_cast<std::size_t>(i);
      EXPECT_EQ(v.rank_at(i), rks[ui]);
      EXPECT_EQ(v.linear_index_of(v.rank_at(i)), i);
      if (i > 0) {
        EXPECT_LT(rks[ui - 1], rks[ui]) << "ranks() must strictly ascend";
      }
    }
    for (int r = 0; r < rks.back() + 2; ++r) {
      EXPECT_EQ(v.contains(r), std::find(rks.begin(), rks.end(), r) != rks.end())
          << "rank " << r;
    }
  }
}

TEST(ProcView, EqualityComparesShape) {
  EXPECT_EQ(ProcView::grid2(2, 3), ProcView::grid2(2, 3));
  EXPECT_FALSE(ProcView::grid2(2, 3) == ProcView::grid2(3, 2));
  EXPECT_FALSE(ProcView::grid1(4) == ProcView::grid1(4, 1));
}

}  // namespace
}  // namespace kali
