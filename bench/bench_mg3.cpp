// E6 — Listings 9-11: three-dimensional multigrid with zebra plane
// relaxation and z-semicoarsening.
//
// Reports per-cycle residual reduction (the paper gives no numbers; we
// record genuine multigrid-grade factors), simulated time per cycle, and
// the zebra/coarse-grid cost split, across processor-grid shapes.  Exits 1
// if the residual factors of one size differ between processor grids.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "machine/measure.hpp"
#include "solvers/mg3.hpp"

namespace kali {
namespace {

struct Outcome {
  std::vector<double> residuals;  // r0, r1, ...
  double time_per_cycle;
  double zebra_time_per_cycle;  // zebra sweeps only (measured separately)
  double utilization;
};

Outcome run(int px, int py, int n, int cycles) {
  Outcome out;
  Machine m(px * py, bench::config_1989());
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
    std::vector<double> res;
    res.push_back(mg3_residual_norm(op, u, f));
    PhaseTimer timer(ctx, pv);
    for (int c = 0; c < cycles; ++c) {
      mg3_cycle(op, u, f);
    }
    PhaseStats stats = timer.finish();
    if (ctx.rank() == 0) {
      out.time_per_cycle = stats.makespan / cycles;
      out.utilization = stats.utilization(px * py);
    }
    // Residual history (untimed): rerun on a fresh problem.
    D3 u2(ctx, pv, {n + 1, n + 1, n + 1}, dists, {0, 1, 1});
    res.clear();
    res.push_back(mg3_residual_norm(op, u2, f));
    for (int c = 0; c < cycles; ++c) {
      mg3_cycle(op, u2, f);
      res.push_back(mg3_residual_norm(op, u2, f));
    }
    if (ctx.rank() == 0) {
      out.residuals = res;
    }
  });

  // Zebra-only timing on a fresh problem (the relaxation share of a cycle).
  Machine m2(px * py, bench::config_1989());
  m2.run([&](Context& ctx) {
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
    Mg3Options opts;
    mg3_zebra_sweep(op, u, f, 0, opts);
    mg3_zebra_sweep(op, u, f, 1, opts);
    if (opts.post_zebra) {  // a full cycle runs zebra twice
      mg3_zebra_sweep(op, u, f, 0, opts);
      mg3_zebra_sweep(op, u, f, 1, opts);
    }
    const double t = timer.finish().makespan;
    if (ctx.rank() == 0) {
      out.zebra_time_per_cycle = t;
    }
  });
  return out;
}

}  // namespace
}  // namespace kali

int main() {
  using namespace kali;
  bench::header("E6", "3-D semicoarsened multigrid, zebra plane relaxation",
                "Listings 9-11");

  const int cycles = 4;
  Table t({"grid", "procs", "time/cycle", "zebra share", "util",
           "residual factors per cycle"});
  // A processor grid changes the time, not the values: every grid of a
  // size must print the same residual factors.
  std::vector<int> differing;
  double share_lo = 1.0, share_hi = 0.0;
  for (int n : {16, 32}) {
    std::string first;
    bool same = true;
    for (auto [px, py] : {std::pair{1, 1}, std::pair{2, 2}, std::pair{4, 2},
                          std::pair{4, 4}}) {
      Outcome o = run(px, py, n, cycles);
      std::string factors;
      for (std::size_t c = 1; c < o.residuals.size(); ++c) {
        factors += fmt(o.residuals[c] / o.residuals[c - 1], 3) + " ";
      }
      if (first.empty()) {
        first = factors;
      } else {
        same = same && factors == first;
      }
      const double share = o.zebra_time_per_cycle / o.time_per_cycle;
      share_lo = std::min(share_lo, share);
      share_hi = std::max(share_hi, share);
      t.add_row({std::to_string(n) + "^3",
                 std::to_string(px) + "x" + std::to_string(py),
                 fmt_time(o.time_per_cycle), fmt(share, 2),
                 fmt(o.utilization, 2), factors});
    }
    if (!same) {
      differing.push_back(n);
    }
  }
  t.print(std::cout);
  std::cout << "\nshape check: residual factors well below 1, roughly\n"
            << "grid-size independent (the multigrid property) and the same\n"
            << "on every processor grid of a size; the fine level's zebra\n"
            << "sweeps take " << fmt(share_lo, 2) << "-" << fmt(share_hi, 2)
            << " of a cycle.\n";
  for (int n : differing) {
    std::cerr << "E6: the residual factors at " << n
              << "^3 differ between processor grids\n";
  }
  return differing.empty() ? 0 : 1;
}
