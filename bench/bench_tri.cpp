// E2 — §3 and Figures 1-3: the substructured parallel tridiagonal solver.
//
// Reports: (a) the Figure 3 data-flow profile — active processors per step
// halve through the reduction phase and double through substitution;
// (b) simulated-time scaling of `tri` over processor counts against the
// one-processor Thomas solve, at several system sizes.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "machine/measure.hpp"
#include "kernels/thomas.hpp"
#include "kernels/tri.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

struct System {
  std::vector<double> b, a, c, f;
};

System random_system(int n) {
  Rng rng(2026);
  System s;
  const auto un = static_cast<std::size_t>(n);
  s.b.assign(un, 0.0);
  s.a.assign(un, 0.0);
  s.c.assign(un, 0.0);
  s.f.assign(un, 0.0);
  for (std::size_t i = 0; i < un; ++i) {
    s.b[i] = i == 0 ? 0.0 : rng.uniform(-1, 1);
    s.c[i] = i + 1 == un ? 0.0 : rng.uniform(-1, 1);
    s.a[i] = std::abs(s.b[i]) + std::abs(s.c[i]) + rng.uniform(1.0, 2.0);
    s.f[i] = rng.uniform(-10, 10);
  }
  return s;
}

double solve_time(const System& s, int n, int p, EventLog* log) {
  Machine m(p, bench::config_1989());
  m.attach_event_log(log);
  double makespan = 0.0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> b(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> a(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> c(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> f(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    b.fill([&](std::array<int, 1> g) { return s.b[static_cast<std::size_t>(g[0])]; });
    a.fill([&](std::array<int, 1> g) { return s.a[static_cast<std::size_t>(g[0])]; });
    c.fill([&](std::array<int, 1> g) { return s.c[static_cast<std::size_t>(g[0])]; });
    f.fill([&](std::array<int, 1> g) { return s.f[static_cast<std::size_t>(g[0])]; });
    PhaseTimer timer(ctx, pv);
    tri(b, a, c, f, x);
    const double t = timer.finish().makespan;
    if (ctx.rank() == 0) {
      makespan = t;
    }
  });
  return makespan;
}

}  // namespace
}  // namespace kali

int main() {
  using namespace kali;
  bench::header("E2", "Substructured tridiagonal solver",
                "section 3, Figures 1-3 (Listing 4-5)");

  // --- Figure 3: active processors per step, p = 8 ------------------------
  {
    const int p = 8, n = 512;
    EventLog log(p);
    System s = random_system(n);
    (void)solve_time(s, n, p, &log);
    const ActivityTrace trace = log.activity(tri_trace_steps(p), p);
    Table t({"step", "phase", "active procs"});
    const char* phases[] = {"local reduction", "merge (4-row reduce)",
                            "root Thomas solve", "substitution",
                            "local substitution"};
    for (int q = 0; q < trace.nsteps(); ++q) {
      const int k = (trace.nsteps() - 1) / 2;
      const char* ph = q == 0              ? phases[0]
                       : q < k             ? phases[1]
                       : q == k            ? phases[2]
                       : q < 2 * k         ? phases[3]
                                           : phases[4];
      t.add_row({std::to_string(q), ph, std::to_string(trace.active_count(q))});
    }
    t.print(std::cout);
    std::cout << "paper Figure 3: counts p, p/2, ..., 1, ..., p/2, p.\n\n";
  }

  // --- scaling table -------------------------------------------------------
  Table t({"n", "p", "sim time", "speedup", "efficiency"});
  for (int n : {512, 4096, 16384}) {
    System s = random_system(n);
    const double t1 = solve_time(s, n, 1, nullptr);
    for (int p : {1, 2, 4, 8, 16, 32, 64}) {
      if (n / p < 2) {
        continue;
      }
      const double tp = solve_time(s, n, p, nullptr);
      t.add_row({std::to_string(n), std::to_string(p), fmt_time(tp),
                 fmt(t1 / tp, 2), fmt(t1 / tp / p, 2)});
    }
  }
  t.print(std::cout);
  std::cout << "\nshape check: speedup grows with p until the log2(p) tree\n"
            << "phases dominate; larger n pushes the saturation point out.\n";
  return 0;
}
