// Explicit time stepping of the 2-D wave equation — the paper's remaining
// motivating domain ("tensor product algorithms ... are the basis of most
// numerical weather prediction programs", section 6): a leapfrog scheme
// whose entire parallel structure is one halo exchange plus one
// owner-computes doall per step.
//
//   u_tt = c^2 (u_xx + u_yy),  homogeneous Dirichlet walls,
//   a Gaussian pulse bouncing inside the unit square.
#include <cmath>
#include <iostream>

#include "machine/measure.hpp"
#include "runtime/doall.hpp"
#include "support/table.hpp"

int main() {
  using namespace kali;
  constexpr int kP = 4, kN = 96, kSteps = 200;
  constexpr double kC = 1.0;
  const double h = 1.0 / (kN + 1);
  const double dt = 0.4 * h / kC;  // CFL-safe
  const double lam2 = (kC * dt / h) * (kC * dt / h);

  Machine machine(kP * kP);
  double energy0 = 0.0, energy1 = 0.0, makespan = 0.0;
  machine.run([&](Context& ctx) {
    ProcView procs = ProcView::grid2(kP, kP);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    D2 u(ctx, procs, {kN, kN}, dists, {1, 1});
    D2 uprev(ctx, procs, {kN, kN}, dists, {1, 1});
    D2 unext(ctx, procs, {kN, kN}, dists, {1, 1});

    auto pulse = [&](int i, int j) {
      const double x = (i + 1) * h - 0.35, y = (j + 1) * h - 0.6;
      return std::exp(-400.0 * (x * x + y * y));
    };
    u.fill([&](std::array<int, 2> g) { return pulse(g[0], g[1]); });
    uprev.fill([&](std::array<int, 2> g) { return pulse(g[0], g[1]); });

    auto energy = [&]() {
      double local = 0.0;
      u.for_each_owned([&](std::array<int, 2> g) { local += u.at(g) * u.at(g); });
      return allreduce_sum(ctx, procs, local);
    };
    const double e0 = energy();

    PhaseTimer timer(ctx, procs);
    for (int step = 0; step < kSteps; ++step) {
      u.exchange_halo();
      doall2(
          unext, Range{0, kN - 1}, Range{0, kN - 1},
          [&](int i, int j) {
            const double lap =
                u.at_halo({i - 1, j}) + u.at_halo({i + 1, j}) +
                u.at_halo({i, j - 1}) + u.at_halo({i, j + 1}) -
                4.0 * u.at_halo({i, j});
            unext(i, j) = 2.0 * u(i, j) - uprev(i, j) + lam2 * lap;
          },
          9.0);
      std::swap(uprev, u);
      std::swap(u, unext);
    }
    const double t = timer.finish().makespan;
    const double e1 = energy();
    if (ctx.rank() == 0) {
      energy0 = e0;
      energy1 = e1;
      makespan = t;
    }
  });

  std::cout << "2-D wave equation, " << kN << "^2 grid on " << kP << "x" << kP
            << " procs, " << kSteps << " leapfrog steps\n"
            << "  pulse energy start/end : " << fmt_sci(energy0) << " / "
            << fmt_sci(energy1) << "  (bounded: stable scheme)\n"
            << "  simulated time         : " << fmt_time(makespan) << "  ("
            << fmt_time(makespan / kSteps) << " per step)\n"
            << "  messages               : "
            << machine.stats().totals().msgs_sent << "\n";
  return 0;
}
