// E8 — §2/§5: "a variety of distribution patterns can be tried by simple
// modifications of this program" / the discussion of alternative
// distributions for the 3-D arrays in mg3.
//
// The same ADI code runs under three distribution declarations (the only
// change is the DimDist line — the paper's point), and mg3 runs under
// three processor-grid shapes; the tables show which wins where.
#include <iostream>

#include "bench_common.hpp"
#include "machine/measure.hpp"
#include "solvers/adi.hpp"
#include "solvers/mg3.hpp"

namespace kali {
namespace {

double adi_time(int px, int py, int n, int iters) {
  Machine m(px * py, bench::config_1989());
  double out = 0.0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(px, py);
    Op2 op;
    op.hx = op.hy = 1.0 / (n + 1);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    D2 u(ctx, pv, {n, n}, dists, {1, 1});
    D2 f(ctx, pv, {n, n}, dists);
    f.fill([&](std::array<int, 2> g) {
      return rhs2(op, (g[0] + 1) * op.hx, (g[1] + 1) * op.hy);
    });
    AdiOptions opts;
    opts.op = op;
    opts.tau = adi_default_tau(op, n);
    PhaseTimer timer(ctx, pv);
    for (int it = 0; it < iters; ++it) {
      adi_iterate(opts, u, f);
    }
    const double t = timer.finish().makespan;
    if (ctx.rank() == 0) {
      out = t / iters;
    }
  });
  return out;
}

double mg3_time(int px, int py, int n, int cycles) {
  Machine m(px * py, bench::config_1989());
  double out = 0.0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(px, py);
    Op3 op;
    op.hx = op.hy = op.hz = 1.0 / n;
    using D3 = DistArray3<double>;
    const typename D3::Dists dists{DimDist::star(), DimDist::block_dist(),
                                   DimDist::block_dist()};
    D3 u(ctx, pv, {n + 1, n + 1, n + 1}, dists, {0, 1, 1});
    D3 f(ctx, pv, {n + 1, n + 1, n + 1}, dists);
    f.fill([&](std::array<int, 3> g) {
      return rhs3(op, g[0] * op.hx, g[1] * op.hy, g[2] * op.hz);
    });
    PhaseTimer timer(ctx, pv);
    for (int c = 0; c < cycles; ++c) {
      mg3_cycle(op, u, f);
    }
    const double t = timer.finish().makespan;
    if (ctx.rank() == 0) {
      out = t / cycles;
    }
  });
  return out;
}

}  // namespace
}  // namespace kali

int main() {
  using namespace kali;
  bench::header("E8", "Distribution retuning by declaration change",
                "sections 2 and 5 (tuning discussion)");

  // --- ADI under three processor-array shapes (same total processors) -----
  const int n = 64, iters = 6;
  Table t({"ADI 64x64 on 16 procs", "processor array", "sim time/iter"});
  t.add_row({"dist (block, block)", "procs(4, 4)", fmt_time(adi_time(4, 4, n, iters))});
  t.add_row({"dist (block, block)", "procs(16, 1)", fmt_time(adi_time(16, 1, n, iters))});
  t.add_row({"dist (block, block)", "procs(1, 16)", fmt_time(adi_time(1, 16, n, iters))});
  t.print(std::cout);
  std::cout << "with procs(16,1) the y-direction solves are local (fast) but\n"
            << "the x-direction solves pay the full tree depth, and vice\n"
            << "versa; the square grid balances the two sweeps.\n\n";

  // --- mg3 under three shapes ------------------------------------------------
  const int n3 = 16, cycles = 2;
  Table t2({"mg3 16^3 on 4 procs", "processor array", "sim time/cycle"});
  t2.add_row({"dist (*, block, block)", "procs(2, 2)", fmt_time(mg3_time(2, 2, n3, cycles))});
  t2.add_row({"dist (*, block, block)", "procs(4, 1)", fmt_time(mg3_time(4, 1, n3, cycles))});
  t2.add_row({"dist (*, block, block)", "procs(1, 4)", fmt_time(mg3_time(1, 4, n3, cycles))});
  t2.print(std::cout);
  std::cout << "procs(4,1) splits every plane over the four ranks and relaxes\n"
            << "a colour's planes as one stacked mg2, whose coarse levels\n"
            << "spread whole planes over them; procs(1,4) parallelizes across\n"
            << "planes but each plane solve is sequential — the paper's\n"
            << "mg3/mg2 dimensionality discussion, reproduced by changing one\n"
            << "line.\n";
  return 0;
}
