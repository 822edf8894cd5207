#include "solvers/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "machine/context.hpp"
#include "machine/measure.hpp"
#include "runtime/io.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

/// Random sparse matrix (diagonally dominant) as dense reference + row fn.
struct RandomMatrix {
  int n;
  std::vector<double> dense;  // row-major

  explicit RandomMatrix(int size, std::uint64_t seed) : n(size) {
    dense.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      double offsum = 0.0;
      const int nnz = rng.uniform_int(1, 4);
      for (int k = 0; k < nnz; ++k) {
        const int j = rng.uniform_int(0, n - 1);
        if (j == i) {
          continue;
        }
        const double v = rng.uniform(-1.0, 1.0);
        dense[static_cast<std::size_t>(i * n + j)] = v;
      }
      for (int j = 0; j < n; ++j) {
        if (j != i) {
          offsum += std::abs(dense[static_cast<std::size_t>(i * n + j)]);
        }
      }
      dense[static_cast<std::size_t>(i * n + i)] = offsum + 1.5;
    }
  }

  [[nodiscard]] SparseRowFn row_fn() const {
    return [this](int i) {
      std::vector<std::pair<int, double>> out;
      for (int j = 0; j < n; ++j) {
        const double v = dense[static_cast<std::size_t>(i * n + j)];
        if (v != 0.0) {
          out.emplace_back(j, v);
        }
      }
      return out;
    };
  }
};

/// Randomly permuted 5-point Laplacian: SPD with a genuinely irregular
/// column pattern once the grid numbering is scrambled.
struct PermutedLaplacian {
  int side;
  int n;
  std::vector<int> perm;   // grid index -> equation index
  std::vector<int> inv;

  explicit PermutedLaplacian(int grid_side, std::uint64_t seed)
      : side(grid_side), n(grid_side * grid_side),
        perm(static_cast<std::size_t>(n)), inv(static_cast<std::size_t>(n)) {
    std::iota(perm.begin(), perm.end(), 0);
    Rng rng(seed);
    for (int i = n - 1; i > 0; --i) {  // Fisher-Yates shuffle
      const int j = rng.uniform_int(0, i);
      std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
    }
    for (int i = 0; i < n; ++i) {
      inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
    }
  }

  [[nodiscard]] SparseRowFn row_fn() const {
    return [this](int row) {
      const int gi = inv[static_cast<std::size_t>(row)];  // grid cell
      const int x = gi % side, y = gi / side;
      std::vector<std::pair<int, double>> out;
      out.emplace_back(row, 4.0);
      auto add = [&](int xx, int yy) {
        if (xx >= 0 && xx < side && yy >= 0 && yy < side) {
          out.emplace_back(perm[static_cast<std::size_t>(yy * side + xx)], -1.0);
        }
      };
      add(x - 1, y);
      add(x + 1, y);
      add(x, y - 1);
      add(x, y + 1);
      return out;
    };
  }
};

class SparseP : public ::testing::TestWithParam<int> {};

TEST_P(SparseP, MultiplyMatchesDenseReference) {
  const int p = GetParam();
  const int n = 24;
  RandomMatrix mat(n, 99);
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> y(ctx, pv, {n}, {DimDist::block_dist()});
    x.fill([](std::array<int, 1> g) { return std::sin(0.9 * g[0]) + 0.2; });
    DistCsrMatrix A(x, mat.row_fn());
    A.multiply(x, y);
    auto xfull = gather_all(x);
    y.for_each_owned([&](std::array<int, 1> g) {
      double expect = 0.0;
      for (int j = 0; j < n; ++j) {
        expect += mat.dense[static_cast<std::size_t>(g[0] * n + j)] *
                  xfull[static_cast<std::size_t>(j)];
      }
      EXPECT_NEAR(y.at(g), expect, 1e-12) << "row " << g[0];
    });
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, SparseP, ::testing::Values(1, 2, 3, 4));

TEST(Sparse, JacobiReducesResidual) {
  const int p = 4, n = 32;
  RandomMatrix mat(n, 5);
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
    b.fill([](std::array<int, 1> g) { return 1.0 + 0.1 * g[0]; });
    DistCsrMatrix A(x, mat.row_fn());
    const double r0 = sparse_jacobi(A, b, x, 0);
    const double r1 = sparse_jacobi(A, b, x, 40);
    EXPECT_LT(r1, 1e-4 * r0);  // dominant matrix: Jacobi converges well
  });
}

TEST(Sparse, CgSolvesPermutedLaplacian) {
  const int p = 4, side = 8;
  PermutedLaplacian lap(side, 7);
  const int n = lap.n;
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
    b.fill([&](std::array<int, 1> g) {
      return std::cos(0.3 * lap.inv[static_cast<std::size_t>(g[0])]);
    });
    DistCsrMatrix A(x, lap.row_fn());
    const int iters = sparse_cg(A, b, x, 1e-10, 500);
    EXPECT_GT(iters, 0);
    EXPECT_LT(iters, 200);
    // Verify the residual directly.
    DistArray1<double> ax = x.clone();
    A.multiply(x, ax);
    double local = 0.0;
    ax.for_each_owned([&](std::array<int, 1> g) {
      const double r = b.at(g) - ax.at(g);
      local += r * r;
    });
    EXPECT_LT(std::sqrt(allreduce_sum(ctx, x.view(), local)), 1e-8);
  });
}

TEST(Sparse, SolutionIndependentOfProcessorCount) {
  const int side = 6;
  PermutedLaplacian lap(side, 11);
  const int n = lap.n;
  auto solve = [&](int p) {
    Machine m(p);
    std::vector<double> out;
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(p);
      DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
      DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
      b.fill([](std::array<int, 1> g) { return 1.0 + g[0] % 3; });
      DistCsrMatrix A(x, lap.row_fn());
      (void)sparse_cg(A, b, x, 1e-12, 500);
      auto full = gather_global(x);
      if (ctx.rank() == 0) {
        out = full;
      }
    });
    return out;
  };
  auto a = solve(1);
  auto b2 = solve(4);
  ASSERT_EQ(a.size(), b2.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k], b2[k], 1e-8);
  }
}

TEST(Sparse, ScheduleIsReusedAcrossMultiplies) {
  // Inspector once, executor many times: iteration 2..k must send exactly
  // the same (data-only) traffic as iteration 1, with no schedule messages.
  const int p = 4, side = 8;
  PermutedLaplacian lap(side, 3);
  const int n = lap.n;
  Machine m(p);
  std::uint64_t first = 0, second = 0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> y(ctx, pv, {n}, {DimDist::block_dist()});
    x.fill([](std::array<int, 1> g) { return 0.5 * g[0]; });
    DistCsrMatrix A(x, lap.row_fn());
    PhaseTimer t1(ctx, pv);
    A.multiply(x, y);
    const auto s1 = t1.finish();
    PhaseTimer t2(ctx, pv);
    A.multiply(x, y);
    const auto s2 = t2.finish();
    if (ctx.rank() == 0) {
      first = s1.msgs;
      second = s2.msgs;
    }
  });
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0u);
}

}  // namespace
}  // namespace kali
