#include "solvers/adi.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "machine/context.hpp"
#include "machine/measure.hpp"

namespace kali {
namespace {

struct Setup {
  DistArray2<double> u;
  DistArray2<double> f;
};

Setup make_problem(Context& ctx, const ProcView& pv, const Op2& op, int n) {
  using D2 = DistArray2<double>;
  const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
  D2 u(ctx, pv, {n, n}, dists, {1, 1});
  D2 f(ctx, pv, {n, n}, dists);
  const double h = 1.0 / (n + 1);
  f.fill([&](std::array<int, 2> g) {
    return rhs2(op, (g[0] + 1) * h, (g[1] + 1) * h);
  });
  return {std::move(u), std::move(f)};
}

Op2 model_op(int n) {
  Op2 op;
  op.axx = 1.0;
  op.ayy = 1.0;
  op.sigma = 0.0;
  op.hx = op.hy = 1.0 / (n + 1);
  return op;
}

class AdiP : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(AdiP, ResidualDropsMonotonicallyAndSubstantially) {
  const auto [px, py, pipelined] = GetParam();
  const int n = 32;
  Machine m(px * py);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(px, py);
    Op2 op = model_op(n);
    auto [u, f] = make_problem(ctx, pv, op, n);
    AdiOptions opts;
    opts.op = op;
    opts.tau = adi_default_tau(op, n);
    opts.pipelined = pipelined;
    double prev = adi_residual_norm(op, u, f);
    const double initial = prev;
    for (int sweep = 0; sweep < 5; ++sweep) {
      for (int it = 0; it < 10; ++it) {
        adi_iterate(opts, u, f);
      }
      const double now = adi_residual_norm(op, u, f);
      EXPECT_LT(now, prev) << "sweep " << sweep;
      prev = now;
    }
    EXPECT_LT(prev, 1e-2 * initial);
  });
}

INSTANTIATE_TEST_SUITE_P(Grids, AdiP,
                         ::testing::Values(std::tuple{1, 1, false},
                                           std::tuple{2, 2, false},
                                           std::tuple{4, 2, false},
                                           std::tuple{2, 2, true},
                                           std::tuple{4, 4, true}));

TEST(Adi, PipelinedMatchesPlainNumerically) {
  // Listing 7 and Listing 8 perform the same arithmetic per system; only
  // the schedule differs, so iterates agree to machine precision.
  const int n = 32, px = 2, py = 2, iters = 8;
  auto run = [&](bool pipelined) {
    Machine m(px * py);
    std::vector<double> probe;  // one processor's values
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(px, py);
      Op2 op = model_op(n);
      auto [u, f] = make_problem(ctx, pv, op, n);
      AdiOptions opts;
      opts.op = op;
      opts.tau = adi_default_tau(op, n);
      opts.pipelined = pipelined;
      for (int it = 0; it < iters; ++it) {
        adi_iterate(opts, u, f);
      }
      if (ctx.rank() == 0) {
        u.for_each_owned([&](std::array<int, 2> g) { probe.push_back(u.at(g)); });
      }
    });
    return probe;
  };
  auto a = run(false);
  auto b = run(true);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k], b[k], 1e-12);
  }
}

TEST(Adi, TransposeMatchesPlainNumerically) {
  // The transpose variant solves the same tridiagonal systems, just with a
  // local Thomas sweep after a redistribution instead of a distributed
  // substructured solve — iterates agree to solver roundoff.
  const int n = 32, px = 2, py = 2, iters = 8;
  auto run = [&](bool transpose) {
    Machine m(px * py);
    std::vector<double> probe;  // one processor's values
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(px, py);
      Op2 op = model_op(n);
      auto [u, f] = make_problem(ctx, pv, op, n);
      AdiOptions opts;
      opts.op = op;
      opts.tau = adi_default_tau(op, n);
      opts.transpose = transpose;
      for (int it = 0; it < iters; ++it) {
        adi_iterate(opts, u, f);
      }
      if (ctx.rank() == 0) {
        u.for_each_owned([&](std::array<int, 2> g) { probe.push_back(u.at(g)); });
      }
    });
    return probe;
  };
  auto a = run(false);
  auto b = run(true);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k], b[k], 1e-9);
  }
}

TEST(Adi, TransposeConverges) {
  // Residual contraction with the redistribution-based direction switch,
  // on a non-square grid to exercise uneven slab intersections.
  const int n = 24, px = 4, py = 2;
  Machine m(px * py);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(px, py);
    Op2 op = model_op(n);
    auto [u, f] = make_problem(ctx, pv, op, n);
    AdiOptions opts;
    opts.op = op;
    opts.tau = adi_default_tau(op, n);
    opts.transpose = true;
    const double initial = adi_residual_norm(op, u, f);
    for (int it = 0; it < 30; ++it) {
      adi_iterate(opts, u, f);
    }
    EXPECT_LT(adi_residual_norm(op, u, f), 1e-2 * initial);
  });
}

TEST(Adi, ConvergesToManufacturedSolution) {
  const int n = 32, px = 2, py = 2;
  Machine m(px * py);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(px, py);
    Op2 op = model_op(n);
    auto [u, f] = make_problem(ctx, pv, op, n);
    AdiOptions opts;
    opts.op = op;
    opts.tau = adi_default_tau(op, n);
    adi_solve(opts, u, f, 120);
    // Compare against the exact continuum solution: discretization error
    // of the 5-point scheme at this resolution is ~ h^2 ~ 1e-3.
    const double h = 1.0 / (n + 1);
    double max_err = 0.0;
    u.for_each_owned([&](std::array<int, 2> g) {
      const double e = std::abs(u.at(g) - exact2((g[0] + 1) * h, (g[1] + 1) * h));
      max_err = std::max(max_err, e);
    });
    EXPECT_LT(max_err, 5e-3);
  });
}

TEST(Adi, PipelinedIsFasterInSimulatedTime) {
  // Paper §4: "One can get better speed-ups with the pipelined version."
  const int n = 64, px = 4, py = 4, iters = 4;
  auto sim_time = [&](bool pipelined) {
    Machine m(px * py);
    double makespan = 0.0;
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(px, py);
      Op2 op = model_op(n);
      auto [u, f] = make_problem(ctx, pv, op, n);
      AdiOptions opts;
      opts.op = op;
      opts.tau = adi_default_tau(op, n);
      opts.pipelined = pipelined;
      PhaseTimer timer(ctx, pv);
      for (int it = 0; it < iters; ++it) {
        adi_iterate(opts, u, f);
      }
      const double t = timer.finish().makespan;
      if (ctx.rank() == 0) {
        makespan = t;
      }
    });
    return makespan;
  };
  EXPECT_LT(sim_time(true), sim_time(false));
}

TEST(Adi, TransposeBitIdenticalUnderLinkContention) {
  // Link contention reorders nothing and drops nothing: the transpose
  // solver's iterates are bit-identical in every contention tier — ports
  // and store-and-forward alike — only the simulated clocks move.  Also
  // the headline PR 3 bugfix end to end: the three redistributions per
  // iteration must generate zero self-messages.
  const int n = 16, px = 2, py = 2, iters = 4;
  auto run = [&](LinkContention contention) {
    MachineConfig cfg;
    cfg.link_contention = contention;
    Machine m(px * py, cfg);
    std::vector<double> probe;
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(px, py);
      Op2 op = model_op(n);
      auto [u, f] = make_problem(ctx, pv, op, n);
      AdiOptions opts;
      opts.op = op;
      opts.tau = adi_default_tau(op, n);
      opts.transpose = true;
      for (int it = 0; it < iters; ++it) {
        adi_iterate(opts, u, f);
      }
      if (ctx.rank() == 0) {
        u.for_each_owned([&](std::array<int, 2> g) { probe.push_back(u.at(g)); });
      }
    });
    EXPECT_EQ(m.stats().self_msgs(kTagRedistData), 0u);
    EXPECT_EQ(m.stats().self_msgs_total(), 0u);
    return std::pair{probe, m.stats().max_clock()};
  };
  const auto [a, clock_off] = run(LinkContention::kNone);
  for (LinkContention mode :
       {LinkContention::kPorts, LinkContention::kStoreForward}) {
    const auto [b, clock_on] = run(mode);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]);  // bit-identical, not just close
    }
    EXPECT_GE(clock_on, clock_off);
  }
}

TEST(Adi, RequiresHalo) {
  Machine m(4);
  EXPECT_THROW(m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    D2 u(ctx, pv, {16, 16}, dists);  // no halo
    D2 f(ctx, pv, {16, 16}, dists);
    AdiOptions opts;
    adi_iterate(opts, u, f);
  }),
               Error);
}

TEST(Adi, TransposeRejectsNonContiguousView) {
  // Transpose mode re-lays the view's ranks out as a 1-D line, so they must
  // form one contiguous range; the left half-columns of a 2 x 4 grid,
  // {0, 1, 4, 5}, do not.
  Machine m(8);
  try {
    m.run([&](Context& ctx) {
      const ProcView pv = ProcView::grid2(2, 4).sub(1, 0, 2);
      if (!pv.contains(ctx.rank())) {
        return;
      }
      using D2 = DistArray2<double>;
      const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
      D2 u(ctx, pv, {16, 16}, dists, {1, 1});
      D2 f(ctx, pv, {16, 16}, dists, {1, 1});
      AdiOptions opts;
      opts.transpose = true;
      adi_iterate(opts, u, f);
    });
    FAIL() << "a non-contiguous view did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("contiguous rank range"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace kali
