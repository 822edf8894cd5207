// Steady heat conduction by ADI — the computational-fluid-dynamics-style
// workload the paper's section 4 is built around (Listings 7-8).
//
// Solves  u_xx + u_yy = F  on the unit square (manufactured solution
// sin(pi x) sin(pi y)) with the plain and the pipelined ADI variants and
// reports convergence history, accuracy, and the pipelining speedup.
#include <cmath>
#include <iostream>

#include "machine/measure.hpp"
#include "solvers/adi.hpp"
#include "support/table.hpp"

int main() {
  using namespace kali;
  constexpr int kPx = 4, kPy = 4, kN = 64;

  for (bool pipelined : {false, true}) {
    Machine machine(kPx * kPy);
    double err = 0.0, makespan = 0.0;
    std::vector<double> history;
    machine.run([&](Context& ctx) {
      ProcView procs = ProcView::grid2(kPx, kPy);
      Op2 op;
      op.hx = op.hy = 1.0 / (kN + 1);
      using D2 = DistArray2<double>;
      const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
      D2 u(ctx, procs, {kN, kN}, dists, {1, 1});
      D2 f(ctx, procs, {kN, kN}, dists);
      f.fill([&](std::array<int, 2> g) {
        return rhs2(op, (g[0] + 1) * op.hx, (g[1] + 1) * op.hy);
      });
      AdiOptions opts;
      opts.op = op;
      opts.tau = adi_default_tau(op, kN);
      opts.pipelined = pipelined;

      PhaseTimer timer(ctx, procs);
      std::vector<double> res;
      for (int block = 0; block < 6; ++block) {
        for (int it = 0; it < 15; ++it) {
          adi_iterate(opts, u, f);
        }
        res.push_back(adi_residual_norm(opts.op, u, f));
      }
      const double t = timer.finish().makespan;

      double e = 0.0;
      u.for_each_owned([&](std::array<int, 2> g) {
        e = std::max(e, std::abs(u.at(g) - exact2((g[0] + 1) * op.hx,
                                                  (g[1] + 1) * op.hy)));
      });
      e = allreduce_max(ctx, procs, e);
      if (ctx.rank() == 0) {
        err = e;
        makespan = t;
        history = res;
      }
    });

    std::cout << (pipelined ? "pipelined ADI (Listing 8)"
                            : "plain ADI (Listing 7)")
              << " on " << kPx << "x" << kPy << " procs, " << kN << "^2 grid\n"
              << "  residual every 15 iterations:";
    for (double r : history) {
      std::cout << " " << fmt_sci(r, 1);
    }
    std::cout << "\n  max error vs exact    : " << fmt_sci(err)
              << "  (discretization level)\n"
              << "  simulated time (90 it): " << fmt_time(makespan) << "\n\n";
  }
  return 0;
}
