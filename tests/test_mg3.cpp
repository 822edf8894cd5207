#include "solvers/mg3.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "machine/context.hpp"
#include "machine/message.hpp"
#include "runtime/io.hpp"
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
  // At 16 x 16 x 64 on eight columns the 33-plane level does not fit eight
  // columns, so mg3_cycle restricts onto the widest column range that holds
  // it and every coarser level (three columns); the oracle keeps one
  // column.  The arithmetic is the one-rank cycle's, so both match it byte
  // for byte, and the coarse levels' plane solves run on three columns side
  // by side.  The agglomerated levels (33 planes and coarser) outweigh the
  // fine level's 9 planes per column, so the widening shows in the whole
  // cycle (0.65x on 4x8, 0.62x on 1x8).  The level switches' fusion alone
  // moves it by a few percent at most (one column on both sides reads
  // 0.977x and 1.006x), so the 0.8x bound is the widening.  At 16^3 on
  // four columns only the 9-plane and coarser levels agglomerate, and the
  // widening saves just 10-12% of the cycle there.
  const int nx = 16, ny = 16, nz = 64;
  auto run = [&](int px, int py, bool widened) {
    Machine m(px * py);
    std::vector<std::vector<double>> sol(static_cast<std::size_t>(px * py));
    std::vector<double> global(
        static_cast<std::size_t>((nx + 1) * (ny + 1) * (nz + 1)));
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(px, py);
      Op3 op = model_op(nx, ny, nz);
      auto [u, f] = make_problem(ctx, pv, op, nx, ny, nz);
      for (int cyc = 0; cyc < 2; ++cyc) {
        if (widened) {
          mg3_cycle(op, u, f);
        } else {
          oracles::mg3_cycle_unfused(op, u, f);
        }
      }
      u.for_each_owned([&](std::array<int, 3> g) {
        sol[static_cast<std::size_t>(ctx.rank())].push_back(u.at(g));
        global[static_cast<std::size_t>(linearize(u, g))] = u.at(g);
      });
    });
    return std::tuple{sol, global, m.stats().max_clock()};
  };
  const auto global_one_rank = std::get<1>(run(1, 1, true));
  for (const auto& [px, py] : {std::pair{4, 8}, std::pair{1, 8}}) {
    ASSERT_EQ(detail::agglomeration_width(nz / 2, py), 3);
    const auto [sol_one, global_one, t_one] = run(px, py, false);
    const auto [sol_wide, global_wide, t_wide] = run(px, py, true);
    EXPECT_EQ(sol_wide, sol_one) << px << "x" << py;
    EXPECT_EQ(global_wide, global_one_rank) << px << "x" << py;
    EXPECT_EQ(global_one, global_one_rank) << px << "x" << py;
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
  // messages; elsewhere it sends the same messages.  Both match the
  // one-rank sweeps byte for byte.  n = 8 lays out on 2x2 only: 9 points
  // over 4 leave a processor without any.
  for (int n : {8, 16, 32}) {
    for (int parity : {0, 1}) {
      auto run = [&](int px, int py, bool stacked) {
        Machine m(px * py);
        std::vector<std::vector<double>> sol(
            static_cast<std::size_t>(px * py));
        std::vector<double> global(
            static_cast<std::size_t>((n + 1) * (n + 1) * (n + 1)));
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
            global[static_cast<std::size_t>(linearize(u, g))] = u.at(g);
          });
        });
        return std::tuple{sol, global, m.stats().totals().msgs_sent,
                          m.stats().max_clock()};
      };
      const auto global_one_rank = std::get<1>(run(1, 1, true));
      for (const auto& [px, py] : {std::pair{1, 4}, std::pair{2, 2},
                                   std::pair{2, 4}, std::pair{4, 4}}) {
        if (!detail::coarsenable(n + 1, px) ||
            !detail::coarsenable(n + 1, py)) {
          continue;
        }
        const auto [sol_plane, global_plane, msgs_plane, t_plane] =
            run(px, py, false);
        const auto [sol_stack, global_stack, msgs_stack, t_stack] =
            run(px, py, true);
        const std::string at = std::to_string(px) + "x" + std::to_string(py) +
                               " n " + std::to_string(n) + " parity " +
                               std::to_string(parity);
        EXPECT_EQ(sol_stack, sol_plane) << at;
        EXPECT_EQ(global_stack, global_one_rank) << at;
        EXPECT_EQ(global_plane, global_one_rank) << at;
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
