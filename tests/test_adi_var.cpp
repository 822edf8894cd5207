#include "solvers/adi_var.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "machine/context.hpp"
#include "solvers/model.hpp"

namespace kali {
namespace {

// Manufactured problem: u* = sin(pi x) sin(pi y) under
// a(x,y) u_xx + b(x,y) u_yy + c(x,y) u = F with smooth positive a, b.
double coef_a(double x, double /*y*/) { return 1.0 + 0.5 * x; }
double coef_b(double /*x*/, double y) { return 1.0 + 0.25 * y * y; }
double coef_c(double x, double y) { return -0.5 * (x + y); }

double exact_u(double x, double y) { return exact2(x, y); }

double rhs_f(double x, double y) {
  const double pi = std::numbers::pi;
  const double u = exact_u(x, y);
  const double uxx = -pi * pi * u;
  const double uyy = -pi * pi * u;
  return coef_a(x, y) * uxx + coef_b(x, y) * uyy + coef_c(x, y) * u;
}

struct Setup {
  DistArray2<double> u;
  DistArray2<double> f;
};

Setup make_problem(Context& ctx, const ProcView& pv, int n) {
  using D2 = DistArray2<double>;
  const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
  D2 u(ctx, pv, {n, n}, dists, {1, 1});
  D2 f(ctx, pv, {n, n}, dists);
  const double h = 1.0 / (n + 1);
  f.fill([&](std::array<int, 2> g) {
    return rhs_f((g[0] + 1) * h, (g[1] + 1) * h);
  });
  return {std::move(u), std::move(f)};
}

AdiVarOptions options(int n, bool pipelined) {
  AdiVarOptions opts;
  opts.a = &coef_a;
  opts.b = &coef_b;
  opts.c = &coef_c;
  opts.hx = opts.hy = 1.0 / (n + 1);
  opts.pipelined = pipelined;
  return opts;
}

class AdiVarP : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(AdiVarP, ConvergesOnVariableCoefficients) {
  const auto [px, py, pipelined] = GetParam();
  const int n = 32;
  Machine m(px * py);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(px, py);
    auto [u, f] = make_problem(ctx, pv, n);
    AdiVarOptions opts = options(n, pipelined);
    AdiVarWorkspace ws(opts, u);
    AdiVarOptions tuned = opts;
    tuned.tau = adi_var_default_tau(ws);
    AdiVarWorkspace ws2(tuned, u);
    const double r0 = adi_var_residual_norm(ws2, u, f);
    for (int it = 0; it < 60; ++it) {
      adi_var_iterate(ws2, u, f);
    }
    EXPECT_LT(adi_var_residual_norm(ws2, u, f), 1e-3 * r0);
  });
}

INSTANTIATE_TEST_SUITE_P(Grids, AdiVarP,
                         ::testing::Values(std::tuple{1, 1, false},
                                           std::tuple{2, 2, false},
                                           std::tuple{2, 2, true},
                                           std::tuple{4, 2, false}));

TEST(AdiVar, SolutionMatchesManufactured) {
  const int n = 32, px = 2, py = 2;
  Machine m(px * py);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(px, py);
    auto [u, f] = make_problem(ctx, pv, n);
    AdiVarOptions opts = options(n, false);
    AdiVarWorkspace ws0(opts, u);
    opts.tau = adi_var_default_tau(ws0);
    AdiVarWorkspace ws(opts, u);
    for (int it = 0; it < 150; ++it) {
      adi_var_iterate(ws, u, f);
    }
    const double h = 1.0 / (n + 1);
    double max_err = 0.0;
    u.for_each_owned([&](std::array<int, 2> g) {
      max_err = std::max(max_err, std::abs(u.at(g) - exact_u((g[0] + 1) * h,
                                                             (g[1] + 1) * h)));
    });
    EXPECT_LT(max_err, 1e-2);  // discretization-level accuracy
  });
}

TEST(AdiVar, PipelinedMatchesPlainNumerically) {
  const int n = 16, px = 2, py = 2, iters = 6;
  auto run = [&](bool pipelined) {
    Machine m(px * py);
    std::vector<double> probe;
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(px, py);
      auto [u, f] = make_problem(ctx, pv, n);
      AdiVarOptions opts = options(n, pipelined);
      opts.tau = 0.01;
      AdiVarWorkspace ws(opts, u);
      for (int it = 0; it < iters; ++it) {
        adi_var_iterate(ws, u, f);
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
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k], b[k], 1e-12);
  }
}

TEST(AdiVar, ConstantCoefficientsReduceToPlainAdi) {
  // With a = b = 1, c = 0 the variable-coefficient path must agree with
  // the constant-coefficient operator's residual definition.
  const int n = 16;
  Machine m(4);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    auto [u, f] = make_problem(ctx, pv, n);
    u.fill([](std::array<int, 2> g) { return 0.01 * g[0] + 0.02 * g[1]; });
    AdiVarOptions opts;
    opts.a = [](double, double) { return 1.0; };
    opts.b = [](double, double) { return 1.0; };
    opts.c = [](double, double) { return 0.0; };
    opts.hx = opts.hy = 1.0 / (n + 1);
    AdiVarWorkspace ws(opts, u);
    Op2 op;
    op.hx = op.hy = 1.0 / (n + 1);
    // Residuals must agree exactly (same stencil, same data).
    const double rv = adi_var_residual_norm(ws, u, f);
    auto uin = u.copy_in();
    const double cx = op.cx(), cy = op.cy(), dg = op.diag();
    double local = 0.0;
    doall2(u, Range{0, n - 1}, Range{0, n - 1}, [&](int i, int j) {
      const double lu = cx * (uin.at_halo({i - 1, j}) + uin.at_halo({i + 1, j})) +
                        cy * (uin.at_halo({i, j - 1}) + uin.at_halo({i, j + 1})) +
                        dg * uin.at_halo({i, j});
      const double res = f(i, j) - lu;
      local += res * res;
    });
    Group g = u.group();
    const double rc = std::sqrt(allreduce_sum(ctx, g, local));
    EXPECT_NEAR(rv, rc, 1e-9 * std::max(1.0, rc));
  });
}

}  // namespace
}  // namespace kali
