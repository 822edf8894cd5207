#include "kernels/mtri.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/thomas.hpp"
#include "kernels/tri.hpp"
#include "machine/context.hpp"
#include "machine/measure.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

// Per-system coefficients derived deterministically from (j, i).
double coef_b(int j, int i) { return i == 0 ? 0.0 : -0.4 - 0.01 * ((i + j) % 7); }
double coef_c(int j, int i, int n) {
  return i == n - 1 ? 0.0 : -0.5 - 0.01 * ((i * 3 + j) % 5);
}
double coef_a(int j, int i, int n) {
  return 2.0 + std::abs(coef_b(j, i)) + std::abs(coef_c(j, i, n)) +
         0.02 * (j % 3);
}
double coef_f(int j, int i) { return std::sin(0.1 * i + 0.7 * j); }

std::vector<double> reference_solution(int j, int n) {
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> b(un), a(un), c(un), f(un), x(un);
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    b[u] = coef_b(j, i);
    a[u] = coef_a(j, i, n);
    c[u] = coef_c(j, i, n);
    f[u] = coef_f(j, i);
  }
  thomas_solve(b, a, c, f, x);
  return x;
}

class MtriP : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MtriP, MatchesPerSystemThomas) {
  const auto [p, nsys, n] = GetParam();
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
    D2 B(ctx, pv, {nsys, n}, dists), A(ctx, pv, {nsys, n}, dists);
    D2 C(ctx, pv, {nsys, n}, dists), F(ctx, pv, {nsys, n}, dists);
    D2 X(ctx, pv, {nsys, n}, dists);
    B.fill([&](std::array<int, 2> g) { return coef_b(g[0], g[1]); });
    A.fill([&](std::array<int, 2> g) { return coef_a(g[0], g[1], n); });
    C.fill([&](std::array<int, 2> g) { return coef_c(g[0], g[1], n); });
    F.fill([&](std::array<int, 2> g) { return coef_f(g[0], g[1]); });
    mtri(B, A, C, F, X, /*system_dim=*/0);
    for (int j = 0; j < nsys; ++j) {
      auto ref = reference_solution(j, n);
      auto xj = X.fix(0, j);
      xj.for_each_owned([&](std::array<int, 1> g) {
        EXPECT_NEAR(xj.at(g), ref[static_cast<std::size_t>(g[0])], 1e-9)
            << "system " << j << " row " << g[0];
      });
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, MtriP,
                         ::testing::Values(std::tuple{1, 3, 16},
                                           std::tuple{2, 4, 16},
                                           std::tuple{4, 1, 32},
                                           std::tuple{4, 8, 32},
                                           std::tuple{8, 16, 64},
                                           std::tuple{8, 5, 64}));

TEST(Mtri, SystemsAlongDim1) {
  // Systems stacked along dim 1 (the paper's mtriyc orientation).
  const int p = 4, nsys = 6, n = 32;
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::star()};
    D2 F(ctx, pv, {n, nsys}, dists), X(ctx, pv, {n, nsys}, dists);
    F.fill([&](std::array<int, 2> g) { return coef_f(g[1], g[0]); });
    mtri_const(-1.0, 4.0, -1.0, F, X, /*system_dim=*/1);
    // Reference per system.
    for (int j = 0; j < nsys; ++j) {
      const auto un = static_cast<std::size_t>(n);
      std::vector<double> f(un), ref(un);
      for (int i = 0; i < n; ++i) {
        f[static_cast<std::size_t>(i)] = coef_f(j, i);
      }
      thomas_solve_const(-1.0, 4.0, -1.0, f, ref);
      auto xj = X.fix(1, j);
      xj.for_each_owned([&](std::array<int, 1> g) {
        EXPECT_NEAR(xj.at(g), ref[static_cast<std::size_t>(g[0])], 1e-9);
      });
    }
  });
}

TEST(Mtri, PipelineBeatsSerialTriCalls) {
  // The Listing 6 claim: pipelining the m solves keeps processors busy and
  // reduces the simulated makespan versus m sequential tri calls.
  const int p = 8, nsys = 16, n = 128;
  auto run = [&](bool pipelined) {
    Machine m(p);
    double makespan = 0.0;
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(p);
      using D2 = DistArray2<double>;
      const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
      D2 F(ctx, pv, {nsys, n}, dists), X(ctx, pv, {nsys, n}, dists);
      F.fill([&](std::array<int, 2> g) { return coef_f(g[0], g[1]); });
      PhaseTimer timer(ctx, pv.group(ctx.rank()));
      if (pipelined) {
        mtri_const(-1.0, 4.0, -1.0, F, X, 0);
      } else {
        for (int j = 0; j < nsys; ++j) {
          auto fj = F.fix(0, j);
          auto xj = X.fix(0, j);
          tric(-1.0, 4.0, -1.0, fj, xj);
        }
      }
      const double t = timer.finish().makespan;
      if (ctx.rank() == 0) {
        makespan = t;
      }
    });
    return makespan;
  };
  const double serial = run(false);
  const double piped = run(true);
  EXPECT_LT(piped, serial);
}

TEST(Mtri, SteadyStateKeepsEveryProcessorActive) {
  // Figure 5's point: with systems staggered one step apart, interior
  // global steps have all p processors active.
  const int p = 8, nsys = 10, n = 64;
  for (int workers : {1, 4}) {
    MachineConfig cfg;
    cfg.sim_workers = workers;
    Machine m(p, cfg);
    EventLog log(p);
    m.attach_event_log(&log);
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(p);
      using D2 = DistArray2<double>;
      const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
      D2 F(ctx, pv, {nsys, n}, dists), X(ctx, pv, {nsys, n}, dists);
      F.fill([&](std::array<int, 2> g) { return coef_f(g[0], g[1]); });
      mtri_const(-1.0, 4.0, -1.0, F, X, 0);
    });
    const ActivityTrace trace = log.activity(mtri_trace_steps(nsys, p), p);
    const int depth = mtri_trace_steps(1, p);  // 2k+1
    for (int t = depth - 1; t < nsys; ++t) {
      EXPECT_EQ(trace.active_count(t), p)
          << "step " << t << ", " << workers << " workers";
    }
  }
}

TEST(Mtri, TraceStepsFormula) {
  EXPECT_EQ(mtri_trace_steps(1, 1), 1);
  EXPECT_EQ(mtri_trace_steps(4, 1), 4);
  EXPECT_EQ(mtri_trace_steps(1, 8), 7);   // depth 2k+1 = 7
  EXPECT_EQ(mtri_trace_steps(10, 8), 16);  // m + depth - 1
}

TEST(Mtri, RejectsDistributedSystemDim) {
  Machine m(4);
  EXPECT_THROW(m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::star()};
    D2 F(ctx, pv, {16, 8}, dists), X(ctx, pv, {16, 8}, dists);
    mtri_const(-1, 4, -1, F, X, /*system_dim=*/0);  // dim 0 is distributed
  }),
               Error);
}

}  // namespace
}  // namespace kali
