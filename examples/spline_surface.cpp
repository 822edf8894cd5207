// Tensor-product cubic spline surface fitting — the paper's motivating
// application list opens with "spline fitting ... in computer aided
// geometry" (section 1), and cubic spline fitting is one of its named 1-D
// kernels (section 3).
//
// The surface S(x, y) is fit on an nx x ny knot grid by the classic tensor
// product recipe the paper is about: 1-D spline fits along x (local:
// x is the undistributed dimension), then 1-D spline moment systems along
// the distributed y dimension solved in parallel with the pipelined
// multi-system solver (the (1, 4, 1) systems of every x-line at once).
#include <cmath>
#include <iostream>

#include "kernels/spline.hpp"
#include "kernels/thomas.hpp"
#include "runtime/io.hpp"
#include "support/table.hpp"

namespace {

double surface(double x, double y) {
  return std::sin(1.7 * x) * std::exp(-0.3 * y) + 0.25 * x * y;
}

}  // namespace

int main() {
  using namespace kali;
  constexpr int kP = 4;
  constexpr int kNx = 33, kNy = 64;  // knots per direction
  constexpr double kHx = 1.0 / (kNx - 1), kHy = 1.0 / (kNy - 1);

  Machine machine(kP);
  double max_err = 0.0;
  machine.run([&](Context& ctx) {
    ProcView procs = ProcView::grid1(kP);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
    // F(i, j) = surface(x_i, y_j); x undistributed, y block distributed.
    D2 F(ctx, procs, {kNx, kNy}, dists);
    F.fill([&](std::array<int, 2> g) {
      return surface(g[0] * kHx, g[1] * kHy);
    });

    // Step 1 (local): for every owned y-line, the 1-D spline values along x
    // are evaluated at the query abscissa xq — a purely sequential kernel,
    // like seqtri inside mg2.
    // Step 2 (parallel): the y-direction moment systems of all x-queries
    // are solved at once with the pipelined multi-system tridiagonal solver.
    const double queries[] = {0.137, 0.5, 0.861};
    double err = 0.0;
    for (double xq : queries) {
      D2 line_vals(ctx, procs, {1, kNy}, dists);   // S(xq, y_j)
      for (int j : F.owned(1)) {
        std::vector<double> col(kNx);
        for (int i = 0; i < kNx; ++i) {
          col[static_cast<std::size_t>(i)] = F(i, j);
        }
        auto mom = spline_moments(col, kHx);
        line_vals(0, j) = spline_eval(col, mom, 0.0, kHx, xq);
        ctx.compute(kThomasFlopsPerRow * kNx + 12.0);
      }
      // Moment system along y for the sampled line (distributed solve).
      D2 mom(ctx, procs, {1, kNy}, dists);
      auto lv = line_vals.fix(0, 0);
      DistArray1<double> yh(ctx, procs, {kNy}, {DimDist::block_dist()});
      yh.fill([&](std::array<int, 1> g) { return lv.at(g); });
      DistArray1<double> m1 = mom.fix(0, 0);
      spline_fit(yh, kHy, m1);

      // Evaluate at query ordinates: gather the line (small) and compare.
      auto vals = gather_all(yh);
      auto moms = gather_all(m1);
      for (double yq : {0.21, 0.48, 0.77}) {
        const double s = spline_eval(vals, moms, 0.0, kHy, yq);
        err = std::max(err, std::abs(s - surface(xq, yq)));
      }
    }
    err = allreduce_max(ctx, procs, err);
    if (ctx.rank() == 0) {
      max_err = err;
    }
  });

  std::cout << "tensor-product spline surface fit on " << kP << " procs, "
            << kNx << "x" << kNy << " knots\n"
            << "  max |S(xq,yq) - f(xq,yq)| over 9 query points: "
            << fmt_sci(max_err) << "\n"
            << "  simulated time: " << fmt_time(machine.stats().max_clock())
            << "\n"
            << "(x-direction fits are sequential kernels on the undistributed\n"
            << " dimension; y-direction moment systems use the parallel\n"
            << " substructured solver — the paper's kernel composition.)\n";
  return 0;
}
