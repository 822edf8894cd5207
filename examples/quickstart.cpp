// Quickstart: the paper's Listing 3 (Jacobi iteration in KF1 constructs),
// end to end on the virtual loosely coupled machine.
//
//   parsub jacobi(X, f, np; procs)
//   processors procs(p, p)
//   real X(0:np, 0:np), f(0:np, 0:np) dist (block, block)
//   do it = 1, 50
//     doall (i, j) = [1,n]*[1,n] on owner(X(i,j))
//       X(i,j) = 0.25*(X(i+1,j) + X(i-1,j) + X(i,j+1) + X(i,j-1)) - f(i,j)
//
// Build & run:  build/examples/quickstart
#include <cmath>
#include <iostream>

#include "machine/context.hpp"
#include "runtime/doall.hpp"
#include "support/table.hpp"

int main() {
  using namespace kali;
  constexpr int kP = 4;    // processors procs(p, p)
  constexpr int kN = 64;   // interior grid points per side
  constexpr int kIters = 50;

  Machine machine(kP * kP);
  double final_change = 0.0;
  machine.run([&](Context& ctx) {
    ProcView procs = ProcView::grid2(kP, kP);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    D2 x(ctx, procs, {kN, kN}, dists, {1, 1});  // dist (block, block) + frame
    D2 f(ctx, procs, {kN, kN}, dists);
    f.fill([](std::array<int, 2> g) {
      return 1e-3 * std::sin(0.2 * g[0]) * std::cos(0.3 * g[1]);
    });

    double delta = 0.0;
    for (int it = 0; it < kIters; ++it) {
      auto in = x.copy_in();  // the doall's copy-in/copy-out semantics
      delta = 0.0;
      doall2(
          x, Range{0, kN - 1}, Range{0, kN - 1},
          [&](int i, int j) {
            const double next =
                0.25 * (in.at_halo({i + 1, j}) + in.at_halo({i - 1, j}) +
                        in.at_halo({i, j + 1}) + in.at_halo({i, j - 1})) -
                f(i, j);
            delta = std::max(delta, std::abs(next - x(i, j)));
            x(i, j) = next;
          },
          6.0);
    }
    delta = allreduce_max(ctx, procs, delta);
    if (ctx.rank() == 0) {
      final_change = delta;
    }
  });

  auto stats = machine.stats();
  std::cout << "jacobi on a " << kP << "x" << kP << " virtual machine, "
            << kN << "x" << kN << " grid, " << kIters << " iterations\n"
            << "  final max update      : " << fmt_sci(final_change) << "\n"
            << "  simulated time        : " << fmt_time(stats.max_clock()) << "\n"
            << "  messages sent         : " << stats.totals().msgs_sent << "\n"
            << "  compute utilization   : " << fmt(stats.compute_utilization(), 2)
            << "\n";
  return 0;
}
