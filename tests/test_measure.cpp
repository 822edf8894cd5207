#include "machine/measure.hpp"

#include <gtest/gtest.h>

#include "machine/context.hpp"

namespace kali {
namespace {

TEST(PhaseTimer, MeasuresComputeMakespan) {
  Machine m(4);
  m.run([&](Context& ctx) {
    ctx.compute(500.0 * (ctx.rank() + 1));  // pre-phase skew
    PhaseTimer timer(ctx, ProcView::grid1(ctx.nprocs()));
    ctx.compute(1000.0);  // the phase: equal work
    PhaseStats s = timer.finish();
    EXPECT_NEAR(s.makespan, 1000.0 * ctx.config().flop_time, 1e-12);
    EXPECT_DOUBLE_EQ(s.flops, 4000.0);
    EXPECT_EQ(s.msgs, 0u);
  });
}

TEST(PhaseTimer, MakespanIsSlowestMember) {
  Machine m(4);
  m.run([&](Context& ctx) {
    PhaseTimer timer(ctx, ProcView::grid1(ctx.nprocs()));
    ctx.compute(100.0 * (ctx.rank() + 1));  // rank 3 does 400
    PhaseStats s = timer.finish();
    EXPECT_NEAR(s.makespan, 400.0 * ctx.config().flop_time, 1e-12);
    EXPECT_NEAR(s.utilization(4), 1000.0 / (4.0 * 400.0), 1e-9);
  });
}

TEST(PhaseTimer, CountsOnlyPhaseTraffic) {
  Machine m(2);
  m.run([&](Context& ctx) {
    // Pre-phase message (must not be counted).
    if (ctx.rank() == 0) {
      ctx.send<int>(1, 5, 1);
    } else {
      (void)ctx.recv<int>(0, 5);
    }
    PhaseTimer timer(ctx, ProcView::grid1(ctx.nprocs()));
    if (ctx.rank() == 0) {
      std::vector<double> v(10, 1.0);
      ctx.send_span<double>(1, 6, v);
    } else {
      (void)ctx.recv_vec<double>(0, 6);
    }
    PhaseStats s = timer.finish();
    EXPECT_EQ(s.msgs, 1u);
    EXPECT_EQ(s.bytes, 80u);
  });
}

TEST(PhaseTimer, NestedPhasesCompose) {
  Machine m(2);
  m.run([&](Context& ctx) {
    PhaseTimer outer(ctx, ProcView::grid1(ctx.nprocs()));
    double inner_total = 0.0;
    for (int k = 0; k < 3; ++k) {
      PhaseTimer inner(ctx, ProcView::grid1(ctx.nprocs()));
      ctx.compute(100.0);
      inner_total += inner.finish().makespan;
    }
    const double outer_time = outer.finish().makespan;
    // Outer covers the inner phases plus the (excluded-from-inner)
    // measurement collectives — so it is at least the sum of inners.
    EXPECT_GE(outer_time, inner_total - 1e-12);
  });
}

TEST(SyncClocks, AlignsExactly) {
  Machine m(4);
  m.run([&](Context& ctx) {
    ctx.compute(250.0 * ctx.rank());
    const double t = sync_clocks(ctx, ProcView::grid1(ctx.nprocs()));
    EXPECT_DOUBLE_EQ(t, 750.0 * ctx.config().flop_time);
    EXPECT_DOUBLE_EQ(ctx.clock(), t);
  });
}

}  // namespace
}  // namespace kali
