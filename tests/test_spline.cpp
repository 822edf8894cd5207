#include "kernels/spline.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "machine/context.hpp"
#include "runtime/io.hpp"

namespace kali {
namespace {

TEST(Spline, InterpolatesKnotsExactly) {
  std::vector<double> y{1.0, -2.0, 0.5, 4.0, 3.0, -1.0};
  auto m = spline_moments(y, 0.5);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(spline_eval(y, m, 2.0, 0.5, 2.0 + 0.5 * static_cast<double>(i)),
                y[i], 1e-12);
  }
}

TEST(Spline, ReproducesLinearFunctionsExactly) {
  const int n = 9;
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = 3.0 * i - 2.0;
  }
  auto m = spline_moments(y, 1.0);
  for (double v : m) {
    EXPECT_NEAR(v, 0.0, 1e-12);  // linear data has zero curvature
  }
  for (double x = 0.0; x <= 8.0; x += 0.37) {
    EXPECT_NEAR(spline_eval(y, m, 0.0, 1.0, x), 3.0 * x - 2.0, 1e-10);
  }
}

TEST(Spline, ApproximatesSmoothFunction) {
  // Natural spline converges O(h^2) near the ends, better inside; with 33
  // knots on [0, pi] a mid-interval error well below 1e-3 is expected.
  const int n = 33;
  const double h = std::numbers::pi / (n - 1);
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = std::sin(h * i);
  }
  auto m = spline_moments(y, h);
  double max_err = 0.0;
  for (double x = 0.8; x <= 2.3; x += 0.01) {
    max_err = std::max(max_err, std::abs(spline_eval(y, m, 0.0, h, x) - std::sin(x)));
  }
  EXPECT_LT(max_err, 1e-4);
}

TEST(Spline, MomentsSatisfyNaturalBoundary) {
  std::vector<double> y{0.0, 1.0, 4.0, 9.0, 16.0, 25.0, 36.0};
  auto m = spline_moments(y, 1.0);
  EXPECT_DOUBLE_EQ(m.front(), 0.0);
  EXPECT_DOUBLE_EQ(m.back(), 0.0);
}

class SplineDistP : public ::testing::TestWithParam<int> {};

TEST_P(SplineDistP, DistributedFitMatchesSequential) {
  const int p = GetParam();
  const int n = 64;
  const double h = 0.25;
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = std::cos(0.3 * i) + 0.01 * i * i;
  }
  auto ref = spline_moments(y, h);
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> yd(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> md(ctx, pv, {n}, {DimDist::block_dist()});
    yd.fill([&](std::array<int, 1> g) { return y[static_cast<std::size_t>(g[0])]; });
    spline_fit(yd, h, md);
    md.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_NEAR(md.at(g), ref[static_cast<std::size_t>(g[0])], 1e-9);
    });
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, SplineDistP, ::testing::Values(1, 2, 4, 8));

TEST(Spline, EvalClampsOutsideKnotRange) {
  // Queries beyond the knot span extrapolate with the edge cubic segment
  // (continuous; no out-of-range access).
  std::vector<double> y{0.0, 1.0, 2.0, 3.0};
  auto m = spline_moments(y, 1.0);  // linear data: exact line
  EXPECT_NEAR(spline_eval(y, m, 0.0, 1.0, -0.5), -0.5, 1e-12);
  EXPECT_NEAR(spline_eval(y, m, 0.0, 1.0, 3.5), 3.5, 1e-12);
}

TEST(Spline, TooFewKnotsThrows) {
  std::vector<double> y{1.0, 2.0};
  EXPECT_THROW((void)spline_moments(y, 1.0), Error);
}

}  // namespace
}  // namespace kali
