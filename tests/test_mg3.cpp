#include "solvers/mg3.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "machine/context.hpp"
#include "oracles/mg_unfused.hpp"

namespace kali {
namespace {

Op3 model_op(int nx, int ny, int nz) {
  Op3 op;
  op.axx = op.ayy = op.azz = 1.0;
  op.sigma = 0.0;
  op.hx = 1.0 / nx;
  op.hy = 1.0 / ny;
  op.hz = 1.0 / nz;
  return op;
}

struct Setup {
  DistArray3<double> u;
  DistArray3<double> f;
};

Setup make_problem(Context& ctx, const ProcView& pv, const Op3& op, int nx,
                   int ny, int nz) {
  using D3 = DistArray3<double>;
  const typename D3::Dists dists{DimDist::star(), DimDist::block_dist(),
                                 DimDist::block_dist()};
  D3 u(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists, {0, 1, 1});
  D3 f(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists);
  f.fill([&](std::array<int, 3> g) {
    return rhs3(op, g[0] * op.hx, g[1] * op.hy, g[2] * op.hz);
  });
  return {std::move(u), std::move(f)};
}

TEST(Mg3, ZebraPlaneSweepNearlySolvesItsColour) {
  // A zebra half-sweep approximately solves the plane equations of its
  // colour: the residual restricted to even planes must collapse, even
  // though the global L2 residual may transiently grow (the z-oscillatory
  // error it removes is exactly what the coarse grid cannot see).
  const int n = 8;
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    Op3 op = model_op(n, n, n);
    auto [u, f] = make_problem(ctx, pv, op, n, n, n);
    auto plane_residual = [&](int first) {
      auto uin = u.copy_in();
      const double cx = op.cx(), cy = op.cy(), cz = op.cz(), dg = op.diag();
      double local = 0.0;
      doall3(u, Range{1, n - 1}, Range{1, n - 1}, Range{first, n - 1, 2},
             [&](int i, int j, int k) {
               const double au =
                   cx * (uin.at_halo({i - 1, j, k}) + uin.at_halo({i + 1, j, k})) +
                   cy * (uin.at_halo({i, j - 1, k}) + uin.at_halo({i, j + 1, k})) +
                   cz * (uin.at_halo({i, j, k - 1}) + uin.at_halo({i, j, k + 1})) +
                   dg * uin.at_halo({i, j, k});
               const double res = f(i, j, k) - au;
               local += res * res;
             });
      Group g = u.group();
      return std::sqrt(allreduce_sum(ctx, g, local));
    };
    const double even_before = plane_residual(2);
    Mg3Options opts;
    opts.plane_cycles = 3;  // near-exact plane solves for this mechanism test
    mg3_zebra_sweep(op, u, f, 0, opts);
    EXPECT_LT(plane_residual(2), 0.05 * even_before);
  });
}

class Mg3P : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Mg3P, VCyclesConverge) {
  const auto [px, py, n] = GetParam();
  Machine m(px * py);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(px, py);
    Op3 op = model_op(n, n, n);
    auto [u, f] = make_problem(ctx, pv, op, n, n, n);
    const double r0 = mg3_residual_norm(op, u, f);
    double r = r0;
    double worst = 0.0;
    for (int cyc = 0; cyc < 5; ++cyc) {
      mg3_cycle(op, u, f);
      const double rn = mg3_residual_norm(op, u, f);
      worst = std::max(worst, rn / r);
      r = rn;
    }
    EXPECT_LT(r, 1e-4 * r0);
    EXPECT_LT(worst, 0.5);
  });
}

INSTANTIATE_TEST_SUITE_P(Grids, Mg3P,
                         ::testing::Values(std::tuple{1, 1, 8},
                                           std::tuple{2, 2, 8},
                                           std::tuple{2, 2, 16},
                                           std::tuple{4, 2, 16}));

TEST(Mg3, SolutionMatchesManufactured) {
  const int n = 16;
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    Op3 op = model_op(n, n, n);
    auto [u, f] = make_problem(ctx, pv, op, n, n, n);
    for (int cyc = 0; cyc < 8; ++cyc) {
      mg3_cycle(op, u, f);
    }
    double max_err = 0.0;
    u.for_each_owned([&](std::array<int, 3> g) {
      max_err = std::max(max_err,
                         std::abs(u.at(g) - exact3(g[0] * op.hx, g[1] * op.hy,
                                                   g[2] * op.hz)));
    });
    EXPECT_LT(max_err, 2e-2);  // 5e-3-ish discretization error at n=16
  });
}

TEST(Mg3, AnisotropicZDominantConverges) {
  // Semi-coarsening in z plus plane relaxation is designed for exactly
  // this: strong coupling inside planes handled by mg2, z handled by the
  // grid hierarchy.
  const int n = 8;
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    Op3 op = model_op(n, n, n);
    op.azz = 10.0;  // z-dominant anisotropy
    auto [u, f] = make_problem(ctx, pv, op, n, n, n);
    const double r0 = mg3_residual_norm(op, u, f);
    for (int cyc = 0; cyc < 5; ++cyc) {
      mg3_cycle(op, u, f);
    }
    EXPECT_LT(mg3_residual_norm(op, u, f), 1e-3 * r0);
  });
}

TEST(Mg3, FusedLevelSwitchBitIdenticalWithFewerMessages) {
  // The batched z-level switch (one scheduled redistribution instead of a
  // remap round plus a halo round) must reproduce the unfused oracle's
  // separate rounds bit for bit while cutting the cycle's message count.
  // Both sides run the same (fused) mg2 plane solves.
  const int n = 8, p = 4;
  auto run = [&](bool fused) {
    Machine m(p);
    std::vector<std::vector<double>> sol(static_cast<std::size_t>(p));
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(2, 2);
      Op3 op = model_op(n, n, n);
      auto [u, f] = make_problem(ctx, pv, op, n, n, n);
      for (int cyc = 0; cyc < 2; ++cyc) {
        if (fused) {
          mg3_cycle(op, u, f);
        } else {
          oracles::mg3_cycle_unfused(op, u, f);
        }
      }
      u.for_each_owned([&](std::array<int, 3> g) {
        sol[static_cast<std::size_t>(ctx.rank())].push_back(u.at(g));
      });
    });
    return std::pair{sol, m.stats().totals().msgs_sent};
  };
  const auto [sol_sep, msgs_sep] = run(false);
  const auto [sol_fused, msgs_fused] = run(true);
  EXPECT_EQ(sol_fused, sol_sep);    // bit-identical solutions
  EXPECT_LT(msgs_fused, msgs_sep);  // batched switches send fewer messages
}

TEST(Mg3, RejectsNonPowerOfTwoNzOrNy) {
  // nz is halved by the z-semicoarsening and ny by the plane solves' mg2:
  // both must be powers of two, and either violation is refused.
  for (const std::array<int, 2> yz : {std::array{8, 12}, std::array{12, 8}}) {
    const int ny = yz[0], nz = yz[1];
    Machine m(4);
    EXPECT_THROW(m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(2, 2);
      Op3 op = model_op(8, ny, nz);
      auto [u, f] = make_problem(ctx, pv, op, 8, ny, nz);
      mg3_cycle(op, u, f);
    }),
                 Error);
  }
}

TEST(Mg3, PlaneSolvesRunOnPlaneOwnersOnly) {
  // The composition claim of §5: u(*, *, k) inherits procs(*, kp); the
  // relaxation of plane k must not involve other processor columns'
  // message counters at all when there is a single column... instead we
  // check work distribution: with 1x2 columns, each column only relaxes
  // its own planes (flops split roughly in half).
  const int n = 8;
  Machine m(2);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(1, 2);
    Op3 op = model_op(n, n, n);
    auto [u, f] = make_problem(ctx, pv, op, n, n, n);
    Mg3Options opts;
    mg3_zebra_sweep(op, u, f, 0, opts);
  });
  const auto s = m.stats();
  const double f0 = s.per_proc[0].flops;
  const double f1 = s.per_proc[1].flops;
  EXPECT_GT(f0, 0.0);
  EXPECT_GT(f1, 0.0);
  // Column 0 owns even planes {2, 4} and column 1 owns {6} at n = 8, so
  // the work ratio tracks plane ownership (about 2:1), not worse.
  EXPECT_LT(std::abs(f0 - f1) / std::max(f0, f1), 0.65);
}

}  // namespace
}  // namespace kali
