#include "kernels/tri.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/thomas.hpp"
#include "machine/context.hpp"
#include "machine/measure.hpp"
#include "runtime/io.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

struct System {
  std::vector<double> b, a, c, f, x;
};

System random_system(std::uint64_t seed, int n) {
  Rng rng(seed);
  System s;
  const auto un = static_cast<std::size_t>(n);
  s.b.assign(un, 0.0);
  s.a.assign(un, 0.0);
  s.c.assign(un, 0.0);
  s.f.assign(un, 0.0);
  s.x.assign(un, 0.0);
  for (std::size_t i = 0; i < un; ++i) {
    s.b[i] = i == 0 ? 0.0 : rng.uniform(-1, 1);
    s.c[i] = i + 1 == un ? 0.0 : rng.uniform(-1, 1);
    s.a[i] = std::abs(s.b[i]) + std::abs(s.c[i]) + rng.uniform(1.0, 2.0);
    s.f[i] = rng.uniform(-10, 10);
  }
  thomas_solve(s.b, s.a, s.c, s.f, s.x);
  return s;
}

class TriP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TriP, MatchesSequentialThomas) {
  const auto [p, n] = GetParam();
  System s = random_system(1000u + static_cast<std::uint64_t>(p * 7 + n), n);
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> a(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> c(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> f(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    b.fill([&](std::array<int, 1> g) { return s.b[static_cast<std::size_t>(g[0])]; });
    a.fill([&](std::array<int, 1> g) { return s.a[static_cast<std::size_t>(g[0])]; });
    c.fill([&](std::array<int, 1> g) { return s.c[static_cast<std::size_t>(g[0])]; });
    f.fill([&](std::array<int, 1> g) { return s.f[static_cast<std::size_t>(g[0])]; });
    tri(b, a, c, f, x);
    x.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_NEAR(x.at(g), s.x[static_cast<std::size_t>(g[0])], 1e-9)
          << "row " << g[0];
    });
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, TriP,
                         ::testing::Values(std::tuple{1, 16}, std::tuple{2, 16},
                                           std::tuple{4, 16}, std::tuple{4, 64},
                                           std::tuple{8, 64}, std::tuple{8, 256},
                                           std::tuple{16, 256},
                                           std::tuple{16, 64}));

TEST(Tri, ConstCoefficientVariantMatchesGeneral) {
  const int p = 4, n = 32;
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> a(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> c(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> f(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> x1(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> x2(ctx, pv, {n}, {DimDist::block_dist()});
    b.fill_value(-1.0);
    a.fill_value(4.0);
    c.fill_value(-1.0);
    f.fill([](std::array<int, 1> g) { return std::sin(0.3 * g[0]); });
    tri(b, a, c, f, x1);
    tric(-1.0, 4.0, -1.0, f, x2);
    x1.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_NEAR(x1.at(g), x2.at(g), 1e-12);
    });
  });
}

TEST(Tri, WorksOnViewSlice) {
  // A tridiagonal solve on a row of a 2-D array over a processor-row slice:
  // the composition used by ADI (Listing 7).
  const int p = 4, n = 16;
  Machine m(p);
  System s = random_system(5, n);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> F(ctx, pv, {8, n},
                         {DimDist::block_dist(), DimDist::block_dist()});
    DistArray2<double> X(ctx, pv, {8, n},
                         {DimDist::block_dist(), DimDist::block_dist()});
    F.fill([&](std::array<int, 2> g) {
      return g[0] == 5 ? s.f[static_cast<std::size_t>(g[1])] : 0.0;
    });
    auto frow = F.fix(0, 5);
    auto xrow = X.fix(0, 5);
    if (frow.participating()) {
      // Build coefficient arrays over the row's own 1-D view.
      DistArray1<double> b(ctx, frow.view(), {n}, {DimDist::block_dist()});
      DistArray1<double> a(ctx, frow.view(), {n}, {DimDist::block_dist()});
      DistArray1<double> c(ctx, frow.view(), {n}, {DimDist::block_dist()});
      b.fill([&](std::array<int, 1> g) { return s.b[static_cast<std::size_t>(g[0])]; });
      a.fill([&](std::array<int, 1> g) { return s.a[static_cast<std::size_t>(g[0])]; });
      c.fill([&](std::array<int, 1> g) { return s.c[static_cast<std::size_t>(g[0])]; });
      tri(b, a, c, frow, xrow);
      xrow.for_each_owned([&](std::array<int, 1> g) {
        EXPECT_NEAR(xrow.at(g), s.x[static_cast<std::size_t>(g[0])], 1e-9);
      });
    }
  });
}

TEST(Tri, ActivityTraceMatchesFigure3) {
  // Reduction halves the active processors each step; substitution doubles
  // them (paper Figure 3).  Rendered from the event log after the run, so
  // the host worker count cannot move a mark.
  const int p = 8, n = 64;
  System s = random_system(11, n);
  for (int workers : {1, 4}) {
    MachineConfig cfg;
    cfg.sim_workers = workers;
    Machine m(p, cfg);
    EventLog log(p);
    m.attach_event_log(&log);
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(p);
      DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> a(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> c(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> f(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
      b.fill([&](std::array<int, 1> g) { return s.b[static_cast<std::size_t>(g[0])]; });
      a.fill([&](std::array<int, 1> g) { return s.a[static_cast<std::size_t>(g[0])]; });
      c.fill([&](std::array<int, 1> g) { return s.c[static_cast<std::size_t>(g[0])]; });
      f.fill([&](std::array<int, 1> g) { return s.f[static_cast<std::size_t>(g[0])]; });
      tri(b, a, c, f, x);
    });
    const ActivityTrace trace = log.activity(tri_trace_steps(p), p);
    // p = 8, k = 3: steps actives = 8, 4, 2, 1, 2, 4, 8.
    ASSERT_EQ(trace.nsteps(), 7);
    const int expected[] = {8, 4, 2, 1, 2, 4, 8};
    for (int sstep = 0; sstep < 7; ++sstep) {
      EXPECT_EQ(trace.active_count(sstep), expected[sstep])
          << "step " << sstep << ", " << workers << " workers";
    }
    EXPECT_EQ(trace.count(0, 'R'), 8);
    EXPECT_EQ(trace.count(3, 'T'), 1);
    EXPECT_EQ(trace.count(6, 'B'), 8);
  }
}

TEST(Tri, SimulatedTimeBeatsGatherForLargeN) {
  // The whole point of the substructured algorithm: on a high-latency
  // machine it beats shipping the system to one node.  (Checked in the E10
  // bench too; here only the direction of the inequality.)
  const int p = 8, n = 4096;
  System s = random_system(2, n);
  auto run = [&](bool substructured) {
    Machine m(p);
    double makespan = 0.0;
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(p);
      DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> a(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> c(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> f(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
      b.fill([&](std::array<int, 1> g) { return s.b[static_cast<std::size_t>(g[0])]; });
      a.fill([&](std::array<int, 1> g) { return s.a[static_cast<std::size_t>(g[0])]; });
      c.fill([&](std::array<int, 1> g) { return s.c[static_cast<std::size_t>(g[0])]; });
      f.fill([&](std::array<int, 1> g) { return s.f[static_cast<std::size_t>(g[0])]; });
      PhaseTimer timer(ctx, pv.group(ctx.rank()));  // ignore setup
      if (substructured) {
        tri(b, a, c, f, x);
      } else {
        // Sequential solve on processor 0 after an explicit gather.
        auto bb = gather_global(b);
        auto aa = gather_global(a);
        auto cc = gather_global(c);
        auto ff = gather_global(f);
        if (ctx.rank() == 0) {
          std::vector<double> sol(static_cast<std::size_t>(n));
          thomas_solve(bb, aa, cc, ff, sol);
          ctx.compute(kThomasFlopsPerRow * n);
        }
      }
      const double t = timer.finish().makespan;
      if (ctx.rank() == 0) {
        makespan = t;
      }
    });
    return makespan;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Tri, SimulatedTimeIsBitReproducible) {
  // Determinism must survive the full stack: threads race on the host, but
  // the modeled schedule may not.
  const int p = 8, n = 512;
  System s = random_system(21, n);
  auto once = [&]() {
    Machine m(p);
    double makespan = 0.0;
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(p);
      DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> a(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> c(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> f(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
      b.fill([&](std::array<int, 1> g) { return s.b[static_cast<std::size_t>(g[0])]; });
      a.fill([&](std::array<int, 1> g) { return s.a[static_cast<std::size_t>(g[0])]; });
      c.fill([&](std::array<int, 1> g) { return s.c[static_cast<std::size_t>(g[0])]; });
      f.fill([&](std::array<int, 1> g) { return s.f[static_cast<std::size_t>(g[0])]; });
      PhaseTimer timer(ctx, pv.group(ctx.rank()));
      tri(b, a, c, f, x);
      const double t = timer.finish().makespan;
      if (ctx.rank() == 0) {
        makespan = t;
      }
    });
    return makespan;
  };
  const double t1 = once();
  const double t2 = once();
  const double t3 = once();
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_DOUBLE_EQ(t2, t3);
}

TEST(Tri, RejectsNonPowerOfTwoViews) {
  Machine m(3);
  EXPECT_THROW(m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<double> a(ctx, pv, {12}, {DimDist::block_dist()});
    DistArray1<double> x(ctx, pv, {12}, {DimDist::block_dist()});
    a.fill_value(4.0);
    tri(a, a, a, a, x);
  }),
               Error);
}

TEST(Tri, RejectsTooFewRowsPerProcessor) {
  Machine m(4);
  EXPECT_THROW(m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {5}, {DimDist::block_dist()});
    DistArray1<double> x(ctx, pv, {5}, {DimDist::block_dist()});
    a.fill_value(4.0);
    tri(a, a, a, a, x);  // last processor holds < 2 rows
  }),
               Error);
}

}  // namespace
}  // namespace kali
