#include "runtime/inspector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "machine/context.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

TEST(Inspector, GathersRemoteValues) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {16}, {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 3.0 * g[0]; });
    // Everyone wants the reversed array section of its own block.
    std::vector<int> wants;
    for (int l = 0; l < 4; ++l) {
      wants.push_back(15 - (a.own_lower(0) + l));
    }
    auto plan = GatherPlan::build(a, wants);
    auto vals = plan.execute(a);
    ASSERT_EQ(vals.size(), wants.size());
    for (std::size_t k = 0; k < wants.size(); ++k) {
      EXPECT_DOUBLE_EQ(vals[k], 3.0 * wants[k]);
    }
  });
}

TEST(Inspector, SelfGatherUsesNoMessages) {
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 1.0 * g[0]; });
    // Everyone asks only for its own elements.
    std::vector<int> wants;
    for (int g = a.own_lower(0); g <= a.own_upper(0); ++g) {
      wants.push_back(g);
    }
    auto plan = GatherPlan::build(a, wants);
    auto vals = plan.execute(a);
    for (std::size_t k = 0; k < wants.size(); ++k) {
      EXPECT_DOUBLE_EQ(vals[k], 1.0 * wants[k]);
    }
    EXPECT_EQ(plan.send_volume(), 0u);
  });
  // Every request list was empty, so the presence matrix told both sides of
  // each pair to skip it outright: the per-tag ledgers must show zero
  // inspector traffic (the only messages sent are the presence all_gather's
  // collective-band ones).
  EXPECT_EQ(m.stats().sent_msgs(kTagInspReq), 0u);
  EXPECT_EQ(m.stats().sent_msgs(kTagInspData), 0u);
  EXPECT_TRUE(m.stats().unmatched_by_tag().empty());
}

TEST(Inspector, EmptyPairsAreSkippedNotSentEmpty) {
  // 3 ranks; every rank requests only from its right neighbour (mod 3), so
  // of the 6 ordered remote pairs only 3 carry traffic.  The skip must
  // drop exactly the empty pairs' request and data messages — proven by
  // the per-tag send ledgers — while the fetched values stay correct.
  Machine m(3);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<double> a(ctx, pv, {12}, {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 7.0 * g[0]; });
    const int right = (ctx.rank() + 1) % 3;
    std::vector<int> wants;
    for (int l = 0; l < 4; ++l) {
      wants.push_back(4 * right + l);  // right neighbour's whole block
    }
    auto plan = GatherPlan::build(a, wants);
    auto vals = plan.execute(a);
    for (std::size_t k = 0; k < wants.size(); ++k) {
      EXPECT_DOUBLE_EQ(vals[k], 7.0 * wants[k]);
    }
  });
  // One request and one data message per active ordered pair; the 3 empty
  // pairs send nothing at all.
  EXPECT_EQ(m.stats().sent_msgs(kTagInspReq), 3u);
  EXPECT_EQ(m.stats().sent_msgs(kTagInspData), 3u);
  EXPECT_EQ(m.stats().recv_msgs(kTagInspReq), 3u);
  EXPECT_EQ(m.stats().recv_msgs(kTagInspData), 3u);
  EXPECT_TRUE(m.stats().unmatched_by_tag().empty());
}

TEST(Inspector, PlanIsReusableAcrossValueChanges) {
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 1.0 * g[0]; });
    std::vector<int> wants{0, 7, 3, 4};
    auto plan = GatherPlan::build(a, wants);
    auto v1 = plan.execute(a);
    a.fill([](std::array<int, 1> g) { return -2.0 * g[0]; });
    auto v2 = plan.execute(a);  // executor replays without re-inspecting
    for (std::size_t k = 0; k < wants.size(); ++k) {
      EXPECT_DOUBLE_EQ(v1[k], 1.0 * wants[k]);
      EXPECT_DOUBLE_EQ(v2[k], -2.0 * wants[k]);
    }
  });
}

TEST(Inspector, DuplicateAndPermutedWantsHandled) {
  Machine m(3);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<int> a(ctx, pv, {9}, {DimDist::cyclic()});
    a.fill([](std::array<int, 1> g) { return 100 + g[0]; });
    Rng rng(7 + static_cast<std::uint64_t>(ctx.rank()));
    std::vector<int> wants;
    for (int k = 0; k < 20; ++k) {
      wants.push_back(rng.uniform_int(0, 8));
    }
    auto plan = GatherPlan::build(a, wants);
    auto vals = plan.execute(a);
    for (std::size_t k = 0; k < wants.size(); ++k) {
      EXPECT_EQ(vals[k], 100 + wants[k]);
    }
  });
}

TEST(Inspector, OutOfRangeWantThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    std::vector<int> wants{8};
    (void)GatherPlan::build(a, wants);
  }),
               Error);
}

}  // namespace
}  // namespace kali
