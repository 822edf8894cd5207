// Distribution invariance: a processor grid changes the time a solver
// takes, not the values it computes.  Every solver here runs on the grids
// 1x4, 4x1, 2x2, 2x4, 4x2 and 4x4 at n = 16 and 32 and must match its 1x1
// run bit for bit.  mg2 and mg3 agglomerate their coarse levels on some of
// these grids (a coarse layout chosen at the level switch), so their rows
// also pin that agglomeration changes only where the coarse grid lives.
//
// mg2 takes a 1-D view: every processor column of the grid runs its own
// stack, as mg3's plane solves do, and each column must match the 1x1 run.
// fft2 takes a 1-D view too and runs over all px * py ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "kernels/fft2.hpp"
#include "machine/context.hpp"
#include "runtime/io.hpp"
#include "solvers/adi.hpp"
#include "solvers/jacobi.hpp"
#include "solvers/mg2.hpp"
#include "solvers/mg3.hpp"

namespace kali {
namespace {

constexpr std::array<std::pair<int, int>, 6> kGrids{
    {{1, 4}, {4, 1}, {2, 2}, {2, 4}, {4, 2}, {4, 4}}};
constexpr std::array<int, 2> kSizes{16, 32};

/// Runs `body(ctx, pv, out)` on a px x py machine; each rank writes the
/// values it owns into `out` (host memory, so collecting costs no
/// messages).
template <class Body>
std::vector<double> on_grid(int px, int py, std::size_t size, Body body) {
  std::vector<double> out(size);
  Machine m(px * py);
  m.run([&](Context& ctx) { body(ctx, ProcView::grid2(px, py), out); });
  return out;
}

/// Writes a's owned values into out at their row-major global index, plus
/// `offset`.
template <class A>
void keep(const A& a, std::vector<double>& out, std::size_t offset = 0) {
  a.for_each_owned([&](const auto& g) {
    out[offset + static_cast<std::size_t>(linearize(a, g))] = a.at(g);
  });
}

/// Expects `got` to equal `want` bit for bit; on a mismatch reports how
/// many values differ and by how much at most.
void expect_same(const std::vector<double>& got,
                 const std::vector<double>& want, const std::string& at) {
  ASSERT_EQ(got.size(), want.size()) << at;
  int mismatches = 0;
  double worst = 0.0;
  for (std::size_t k = 0; k < got.size(); ++k) {
    if (got[k] != want[k]) {
      ++mismatches;
      worst = std::max(worst, std::abs(got[k] - want[k]));
    }
  }
  EXPECT_EQ(mismatches, 0) << at << ": max abs diff " << worst;
}

/// Compares run(px, py) against run(1, 1) on every grid and size.
template <class Run>
void expect_invariant(const std::string& what, Run run) {
  for (int n : kSizes) {
    const std::vector<double> one = run(1, 1, n);
    ASSERT_TRUE(std::any_of(one.begin(), one.end(),
                            [](double v) { return v != 0.0; }))
        << what << " n " << n << ": the 1x1 run computed nothing";
    for (const auto& [px, py] : kGrids) {
      expect_same(run(px, py, n), one,
                  what + " n " + std::to_string(n) + " on " +
                      std::to_string(px) + "x" + std::to_string(py));
    }
  }
}

// ---- mg2 ------------------------------------------------------------------

/// Three mg2 V-cycles on a stack of nb planes over each processor column;
/// column c's values land in slice c of the result.
std::vector<double> run_mg2(int px, int py, int n, int nb) {
  const auto plane = static_cast<std::size_t>((n + 1) * (n + 1) * nb);
  std::vector<double> cols = on_grid(
      px, py, plane * static_cast<std::size_t>(py),
      [&](Context& ctx, const ProcView& pv, std::vector<double>& out) {
        const int c = (*pv.coord_of(ctx.rank()))[1];
        const ProcView col = pv.fix(1, c);
        Op2 op;
        op.hx = op.hy = 1.0 / n;
        using D3 = DistArray3<double>;
        const D3::Dists dists{DimDist::star(), DimDist::block_dist(),
                              DimDist::star()};
        D3 u(ctx, col, {n + 1, n + 1, nb}, dists, {0, 1, 0});
        D3 f(ctx, col, {n + 1, n + 1, nb}, dists);
        f.fill([&](std::array<int, 3> g) {
          const double x = g[0] * op.hx, y = g[1] * op.hy;
          return (1.0 + 0.25 * g[2]) * rhs2(op, x, y) + 0.1 * g[2] * x * y;
        });
        for (int cyc = 0; cyc < 3; ++cyc) {
          mg2_cycle(op, u, f);
        }
        keep(u, out, plane * static_cast<std::size_t>(c));
      });
  // Every column solves the same problem: return column 0's values after
  // checking the others against them.
  std::vector<double> first(cols.begin(),
                            cols.begin() + static_cast<std::ptrdiff_t>(plane));
  for (int c = 1; c < py; ++c) {
    const auto from = cols.begin() + static_cast<std::ptrdiff_t>(plane) * c;
    const std::vector<double> col(from,
                                  from + static_cast<std::ptrdiff_t>(plane));
    expect_same(col, first, "mg2 column " + std::to_string(c));
  }
  return first;
}

TEST(DistInvariance, Mg2OnePlane) {
  expect_invariant("mg2 nb 1",
                   [](int px, int py, int n) { return run_mg2(px, py, n, 1); });
}

TEST(DistInvariance, Mg2StackOfThree) {
  expect_invariant("mg2 nb 3",
                   [](int px, int py, int n) { return run_mg2(px, py, n, 3); });
}

// ---- mg3 ------------------------------------------------------------------

/// Two mg3 cycles from a zero guess on the manufactured problem.
std::vector<double> run_mg3(int px, int py, int n, const Mg3Options& opts) {
  const auto size = static_cast<std::size_t>((n + 1) * (n + 1) * (n + 1));
  return on_grid(
      px, py, size,
      [&](Context& ctx, const ProcView& pv, std::vector<double>& out) {
        Op3 op;
        op.hx = op.hy = op.hz = 1.0 / n;
        using D3 = DistArray3<double>;
        const D3::Dists dists{DimDist::star(), DimDist::block_dist(),
                              DimDist::block_dist()};
        D3 u(ctx, pv, {n + 1, n + 1, n + 1}, dists, {0, 1, 1});
        D3 f(ctx, pv, {n + 1, n + 1, n + 1}, dists);
        f.fill([&](std::array<int, 3> g) {
          return rhs3(op, g[0] * op.hx, g[1] * op.hy, g[2] * op.hz);
        });
        for (int cyc = 0; cyc < 2; ++cyc) {
          mg3_cycle(op, u, f, opts);
        }
        keep(u, out);
      });
}

TEST(DistInvariance, Mg3) {
  for (int gamma : {1, 2}) {
    for (bool post : {true, false}) {
      Mg3Options opts;
      opts.gamma = gamma;
      opts.post_zebra = post;
      expect_invariant("mg3 gamma " + std::to_string(gamma) + " post_zebra " +
                           std::to_string(post),
                       [&](int px, int py, int n) {
                         return run_mg3(px, py, n, opts);
                       });
    }
  }
}

// ---- ADI, Jacobi, fft2 ----------------------------------------------------

TEST(DistInvariance, AdiTranspose) {
  expect_invariant("adi transpose", [](int px, int py, int n) {
    return on_grid(
        px, py, static_cast<std::size_t>(n * n),
        [&](Context& ctx, const ProcView& pv, std::vector<double>& out) {
          Op2 op;
          op.hx = op.hy = 1.0 / (n + 1);
          using D2 = DistArray2<double>;
          const D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
          D2 u(ctx, pv, {n, n}, dists, {1, 1});
          D2 f(ctx, pv, {n, n}, dists);
          f.fill([&](std::array<int, 2> g) {
            return rhs2(op, (g[0] + 1) * op.hx, (g[1] + 1) * op.hy);
          });
          AdiOptions opts;
          opts.op = op;
          opts.tau = adi_default_tau(op, n);
          opts.transpose = true;
          for (int it = 0; it < 4; ++it) {
            adi_iterate(opts, u, f);
          }
          keep(u, out);
        });
  });
}

TEST(DistInvariance, JacobiKf1) {
  expect_invariant("jacobi_kf1", [](int px, int py, int n) {
    return on_grid(
        px, py, static_cast<std::size_t>(n * n),
        [&](Context& ctx, const ProcView& pv, std::vector<double>& out) {
          const auto rhs = [](int i, int j) {
            return 0.001 * std::sin(0.7 * i + 0.3 * j);
          };
          std::vector<double> x = jacobi_kf1(ctx, pv, n, rhs, 7);
          if (!x.empty()) {  // the gathered interior, on the view's root
            out = std::move(x);
          }
        });
  });
}

TEST(DistInvariance, Fft2Forward) {
  expect_invariant("fft2", [](int px, int py, int n) {
    return on_grid(
        px, py, static_cast<std::size_t>(2 * n * n),
        [&](Context& ctx, const ProcView& grid, std::vector<double>& out) {
          const ProcView pv = ProcView::grid1(grid.count());
          using DC = DistArray2<Complex>;
          DC rows(ctx, pv, {n, n}, {DimDist::block_dist(), DimDist::star()});
          DC cols(ctx, pv, {n, n}, {DimDist::star(), DimDist::block_dist()});
          rows.fill([&](std::array<int, 2> g) {
            return Complex(std::sin(0.37 * g[0] + 0.11 * g[1] * g[1]),
                           std::cos(0.23 * g[0] * g[1]));
          });
          fft2_forward(ctx, rows, cols);
          cols.for_each_owned([&](std::array<int, 2> g) {
            const auto k = static_cast<std::size_t>(2 * linearize(cols, g));
            out[k] = cols.at(g).real();
            out[k + 1] = cols.at(g).imag();
          });
        });
  });
}

}  // namespace
}  // namespace kali
