// 3-D Poisson by the paper's mg3 (Listings 9-11): semicoarsened multigrid
// with zebra plane relaxation, each plane solve itself a 2-D tensor product
// multigrid on a sliced processor view — "algorithms of much greater
// complexity are routinely used for modeling of physical problems".
#include <cmath>
#include <iostream>

#include "solvers/mg3.hpp"
#include "support/table.hpp"

int main() {
  using namespace kali;
  constexpr int kPx = 2, kPy = 2, kN = 16;

  Machine machine(kPx * kPy);
  std::vector<double> history;
  double err = 0.0;
  machine.run([&](Context& ctx) {
    ProcView procs = ProcView::grid2(kPx, kPy);
    Op3 op;
    op.hx = op.hy = op.hz = 1.0 / kN;
    using D3 = DistArray3<double>;
    const typename D3::Dists dists{DimDist::star(), DimDist::block_dist(),
                                   DimDist::block_dist()};
    D3 u(ctx, procs, {kN + 1, kN + 1, kN + 1}, dists, {0, 1, 1});
    D3 f(ctx, procs, {kN + 1, kN + 1, kN + 1}, dists);
    f.fill([&](std::array<int, 3> g) {
      return rhs3(op, g[0] * op.hx, g[1] * op.hy, g[2] * op.hz);
    });

    std::vector<double> res;
    res.push_back(mg3_residual_norm(op, u, f));
    for (int cycle = 0; cycle < 6; ++cycle) {
      mg3_cycle(op, u, f);
      res.push_back(mg3_residual_norm(op, u, f));
    }
    double e = 0.0;
    u.for_each_owned([&](std::array<int, 3> g) {
      e = std::max(e, std::abs(u.at(g) - exact3(g[0] * op.hx, g[1] * op.hy,
                                                g[2] * op.hz)));
    });
    e = allreduce_max(ctx, procs, e);
    if (ctx.rank() == 0) {
      history = res;
      err = e;
    }
  });

  std::cout << "mg3 on " << kPx << "x" << kPy << " procs, " << kN
            << "^3 grid (zebra plane relaxation, z-semicoarsening)\n";
  Table t({"cycle", "residual", "factor"});
  for (std::size_t c = 0; c < history.size(); ++c) {
    t.add_row({std::to_string(c), fmt_sci(history[c]),
               c == 0 ? "-" : fmt(history[c] / history[c - 1], 3)});
  }
  t.print(std::cout);
  std::cout << "max error vs exact solution: " << fmt_sci(err)
            << " (discretization level)\n"
            << "simulated time: " << fmt_time(machine.stats().max_clock())
            << "\n";
  return 0;
}
