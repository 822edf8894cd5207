// E4 — Listing 6 and the §3 claim that pipelining multiple tridiagonal
// solves "keeps more of the processors busy".
//
// Sweeps the number of systems m and compares: m serial calls to `tri`
// versus one pipelined `mtri` call — simulated time, compute utilization,
// and the speedup of pipelining.
#include <iostream>

#include "bench_common.hpp"
#include "machine/measure.hpp"
#include "kernels/mtri.hpp"
#include "kernels/tri.hpp"

namespace kali {
namespace {

struct Outcome {
  double sim_time;
  double utilization;
};

Outcome run(int p, int nsys, int n, bool pipelined) {
  Machine m(p, bench::config_1989());
  Outcome out{};
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
    D2 F(ctx, pv, {nsys, n}, dists), X(ctx, pv, {nsys, n}, dists);
    F.fill([](std::array<int, 2> g) {
      return 1.0 + 0.01 * g[1] + 0.37 * g[0];
    });
    PhaseTimer timer(ctx, pv);
    if (pipelined) {
      mtri_const(-1.0, 4.0, -1.0, F, X, 0);
    } else {
      for (int j = 0; j < nsys; ++j) {
        auto fj = F.fix(0, j);
        auto xj = X.fix(0, j);
        tric(-1.0, 4.0, -1.0, fj, xj);
      }
    }
    PhaseStats stats = timer.finish();
    if (ctx.rank() == 0) {
      out = {stats.makespan, stats.utilization(p)};
    }
  });
  return out;
}

}  // namespace
}  // namespace kali

int main() {
  using namespace kali;
  bench::header("E4", "Pipelined multi-system tridiagonal solver",
                "Listing 6; section 3 processor-utilization claim");

  const int p = 8, n = 1024;
  Table t({"m systems", "serial tri time", "util", "pipelined mtri time",
           "util", "pipelining speedup"});
  for (int nsys : {1, 2, 4, 8, 16, 32}) {
    const Outcome serial = run(p, nsys, n, false);
    const Outcome piped = run(p, nsys, n, true);
    t.add_row({std::to_string(nsys), fmt_time(serial.sim_time),
               fmt(serial.utilization, 2), fmt_time(piped.sim_time),
               fmt(piped.utilization, 2),
               fmt(serial.sim_time / piped.sim_time, 2)});
  }
  t.print(std::cout);
  std::cout
      << "\nshape check: speedup ~1 at m = 1 (identical algorithm) and grows\n"
      << "with m as tree phases of consecutive systems overlap; utilization\n"
      << "of the pipelined solver approaches the stage-1 bound.\n";
  return 0;
}
