#include "solvers/mg3.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <tuple>

#include "machine/context.hpp"
#include "machine/message.hpp"
#include "oracles/mg_per_plane.hpp"
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
      return std::sqrt(allreduce_sum(ctx, u.view(), local));
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
                                           std::tuple{4, 2, 16},
                                           std::tuple{1, 4, 16},
                                           std::tuple{4, 4, 16}));

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

TEST(Mg3, CoarseLevelsSpreadOverWidestColumnRange) {
  // At n = 16 on four columns the 9-plane level does not fit four columns,
  // so mg3_cycle agglomerates onto the widest column range that holds it
  // and every coarser level (three columns); the oracle keeps one column.
  // The arithmetic is the same, so the solutions match byte for byte, and
  // the coarse levels' plane solves run on three columns side by side.  The
  // oracle's unfused level switches alone cost it about 1% (one column on
  // both sides reads 0.991x and 0.997x), so the 0.8x bound is the widening.
  const int n = 16;
  for (const auto& [px, py] : {std::pair{4, 4}, std::pair{1, 4}}) {
    auto run = [&, px = px, py = py](bool widened) {
      Machine m(px * py);
      std::vector<std::vector<double>> sol(static_cast<std::size_t>(px * py));
      m.run([&](Context& ctx) {
        ProcView pv = ProcView::grid2(px, py);
        Op3 op = model_op(n, n, n);
        auto [u, f] = make_problem(ctx, pv, op, n, n, n);
        for (int cyc = 0; cyc < 2; ++cyc) {
          if (widened) {
            mg3_cycle(op, u, f);
          } else {
            oracles::mg3_cycle_unfused(op, u, f);
          }
        }
        u.for_each_owned([&](std::array<int, 3> g) {
          sol[static_cast<std::size_t>(ctx.rank())].push_back(u.at(g));
        });
      });
      return std::pair{sol, m.stats().max_clock()};
    };
    const auto [sol_one, t_one] = run(false);
    const auto [sol_wide, t_wide] = run(true);
    EXPECT_EQ(sol_wide, sol_one) << px << "x" << py;
    EXPECT_LT(t_wide, 0.8 * t_one) << px << "x" << py;
  }
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
  // The composition claim of §5: u(*, *, k) inherits procs(*, kp).  On a
  // 1x2 grid each column is one rank, so its stacked plane solve sends
  // nothing: a half-sweep's only messages are the residual's two z-halo
  // faces.  Column 0 owns even planes {2, 4} and column 1 owns {6} at
  // n = 8, and the flops follow that ownership: per relaxed plane, the two
  // ranks do the same work to within the residual's copy-in of the planes
  // each rank holds but does not relax.
  const int n = 8;
  Machine m(2);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(1, 2);
    Op3 op = model_op(n, n, n);
    auto [u, f] = make_problem(ctx, pv, op, n, n, n);
    mg3_zebra_sweep(op, u, f, 0, Mg3Options{});
  });
  const auto s = m.stats();
  // The grid's one processor row leaves no y neighbour, so every halo
  // message is a z face: one each way between the two columns.
  EXPECT_EQ(s.totals().msgs_sent, 2U);
  EXPECT_EQ(s.sent_msgs(kTagHalo), 2U);
  EXPECT_EQ(s.per_proc[0].msgs_sent, 1U);
  EXPECT_EQ(s.per_proc[1].msgs_sent, 1U);
  const double per_plane0 = s.per_proc[0].flops / 2.0;
  const double per_plane1 = s.per_proc[1].flops / 1.0;
  EXPECT_LT(std::abs(per_plane0 - per_plane1) / per_plane1, 0.1);
}

TEST(Mg3, StackedZebraSweepMatchesPerPlaneOracle) {
  // Each column relaxes its planes of one parity as one stacked mg2, with
  // the residual computed on those planes only; the oracle computes the
  // residual everywhere and solves one plane after another.  The planes'
  // arithmetic is the same, so the sweeps match byte for byte, and the
  // stack finishes no later.  Where a column holds two or more planes on
  // more than one rank (so its plane solves send at all) it sends fewer
  // messages; elsewhere it sends the same messages.  n = 8 lays
  // out on 2x2 only: 9 points over 4 leave a processor without any.
  for (const auto& [px, py] : {std::pair{1, 4}, std::pair{2, 2},
                               std::pair{2, 4}, std::pair{4, 4}}) {
    for (int n : {8, 16, 32}) {
      if (!detail::coarsenable(n + 1, px) || !detail::coarsenable(n + 1, py)) {
        continue;
      }
      for (int parity : {0, 1}) {
        auto run = [&, px = px, py = py](bool stacked) {
          Machine m(px * py);
          std::vector<std::vector<double>> sol(
              static_cast<std::size_t>(px * py));
          m.run([&](Context& ctx) {
            ProcView pv = ProcView::grid2(px, py);
            Op3 op = model_op(n, n, n);
            auto [u, f] = make_problem(ctx, pv, op, n, n, n);
            // A first sweep of the other parity leaves a non-trivial u.
            mg3_zebra_sweep(op, u, f, 1 - parity, Mg3Options{});
            sync_clocks(ctx, pv);
            if (stacked) {
              mg3_zebra_sweep(op, u, f, parity, Mg3Options{});
            } else {
              oracles::mg3_zebra_sweep_per_plane(op, u, f, parity);
            }
            u.for_each_owned([&](std::array<int, 3> g) {
              sol[static_cast<std::size_t>(ctx.rank())].push_back(u.at(g));
            });
          });
          return std::tuple{sol, m.stats().totals().msgs_sent,
                            m.stats().max_clock()};
        };
        const auto [sol_plane, msgs_plane, t_plane] = run(false);
        const auto [sol_stack, msgs_stack, t_stack] = run(true);
        const std::string at = std::to_string(px) + "x" + std::to_string(py) +
                               " n " + std::to_string(n) + " parity " +
                               std::to_string(parity);
        EXPECT_EQ(sol_stack, sol_plane) << at;
        // The most planes of this parity any column holds.
        const DimMap cols(DimDist::block_dist(), n + 1, py);
        int most = 0;
        for (int c = 0; c < py; ++c) {
          most = std::max(
              most, static_cast<int>(detail::owned_in_range(
                                         cols, c, Range{2 - parity, n - 1, 2})
                                         .size()));
        }
        EXPECT_LE(t_stack, t_plane) << at;
        if (most >= 2 && px > 1) {
          EXPECT_LT(msgs_stack, msgs_plane) << at;
        } else {
          EXPECT_EQ(msgs_stack, msgs_plane) << at;
        }

      }
    }
  }
}

}  // namespace
}  // namespace kali
