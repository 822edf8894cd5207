// E12 (extension) — §6: "more complex problems, such as those involving
// adaptive or irregular grids and general sparse matrices.  We are
// addressing these issues in the Kali project as well" (refs [2], [17]).
//
// Measures the inspector/executor economics on a randomly renumbered
// 2-D Laplacian (an irregular column pattern by construction):
//   (a) inspector amortization: assembly+schedule cost vs per-multiply cost;
//   (b) locality sensitivity: natural vs scrambled numbering under the same
//       code — the data-distribution story of the paper carried to
//       irregular problems.
#include <iostream>
#include <numeric>

#include "bench_common.hpp"
#include "machine/measure.hpp"
#include "solvers/sparse.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

struct Numbering {
  int side;
  int n;
  std::vector<int> perm, inv;

  Numbering(int grid_side, bool scrambled) : side(grid_side), n(side * side) {
    perm.resize(static_cast<std::size_t>(n));
    inv.resize(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    if (scrambled) {
      Rng rng(17);
      for (int i = n - 1; i > 0; --i) {
        const int j = rng.uniform_int(0, i);
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(j)]);
      }
    }
    for (int i = 0; i < n; ++i) {
      inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
    }
  }

  [[nodiscard]] SparseRowFn row_fn() const {
    return [this](int row) {
      const int gi = inv[static_cast<std::size_t>(row)];
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

struct Outcome {
  double build_time;
  double multiply_time;
  std::uint64_t multiply_msgs;
  std::uint64_t multiply_bytes;
  int cg_iters;
  double cg_time;
};

Outcome run(int p, int side, bool scrambled) {
  Numbering num(side, scrambled);
  const int n = num.n;
  Machine m(p, bench::config_1989());
  Outcome out{};
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> y(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
    b.fill([](std::array<int, 1> gi) { return 1.0 + gi[0] % 5; });

    PhaseTimer tb(ctx, pv);
    DistCsrMatrix A(x, num.row_fn());
    const double build = tb.finish().makespan;

    x.fill([](std::array<int, 1> gi) { return 0.1 * gi[0]; });
    PhaseTimer tm(ctx, pv);
    A.multiply(x, y);
    const PhaseStats sm = tm.finish();

    x.fill_value(0.0);
    PhaseTimer tc(ctx, pv);
    const int iters = sparse_cg(A, b, x, 1e-8, 1000);
    const double cg_time = tc.finish().makespan;

    if (ctx.rank() == 0) {
      out.build_time = build;
      out.multiply_time = sm.makespan;
      out.multiply_msgs = sm.msgs;
      out.multiply_bytes = sm.bytes;
      out.cg_iters = iters;
      out.cg_time = cg_time;
    }
  });
  return out;
}

}  // namespace
}  // namespace kali

int main() {
  using namespace kali;
  bench::header("E12", "Irregular sparse matrices via inspector/executor",
                "section 6 future work (Kali refs [2], [17])");

  Table t({"numbering", "p", "inspector+assembly", "one multiply",
           "msgs/multiply", "bytes/multiply", "CG iters", "CG time"});
  const int side = 24;  // 576 unknowns
  for (bool scrambled : {false, true}) {
    for (int p : {2, 4, 8}) {
      const Outcome o = run(p, side, scrambled);
      t.add_row({scrambled ? "scrambled" : "natural", std::to_string(p),
                 fmt_time(o.build_time), fmt_time(o.multiply_time),
                 std::to_string(o.multiply_msgs),
                 std::to_string(o.multiply_bytes), std::to_string(o.cg_iters),
                 fmt_time(o.cg_time)});
    }
  }
  t.print(std::cout);
  std::cout
      << "\nshape check: the inspector pays once (column ~ a few multiplies)\n"
      << "and every CG iteration replays the schedule; scrambling the\n"
      << "numbering multiplies the gather volume — the locality story that\n"
      << "motivates distribution control, now for irregular problems.\n";
  return 0;
}
