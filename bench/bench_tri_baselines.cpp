// E10 — §3: "There are a wide variety of parallel tridiagonal algorithms
// in the literature" (ref [8], Johnsson; ref [5], Gannon & Van Rosendale on
// communication complexity).
//
// Compares the paper's substructured algorithm against three classical
// alternatives over (n, p) and over the machine's latency, exposing the
// crossovers that motivated the design.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "machine/measure.hpp"
#include "kernels/baselines.hpp"
#include "kernels/tri.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

struct System {
  std::vector<double> b, a, c, f;
};

System random_system(int n) {
  Rng rng(7);
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

double run(const System& s, int n, int p, int which, const MachineConfig& cfg) {
  Machine m(p, cfg);
  double out = 0.0;
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
    switch (which) {
      case 0:
        tri(b, a, c, f, x);
        break;
      case 1:
        gather_thomas(b, a, c, f, x);
        break;
      case 2:
        pipelined_thomas(b, a, c, f, x);
        break;
      default:
        cyclic_reduction(b, a, c, f, x);
    }
    const double t = timer.finish().makespan;
    if (ctx.rank() == 0) {
      out = t;
    }
  });
  return out;
}

}  // namespace
}  // namespace kali

int main() {
  using namespace kali;
  bench::header("E10", "Parallel tridiagonal algorithm comparison",
                "section 3 (refs [5], [8]): algorithm/communication tradeoffs");

  const char* names[] = {"substructured (paper)", "gather + Thomas",
                         "chained Thomas", "cyclic reduction"};
  for (const auto& [label, cfg] :
       {std::pair{std::string("1989 machine (alpha = 80 us)"),
                  bench::config_1989()},
        std::pair{std::string("low-latency machine (alpha = 10 us)"),
                  bench::config_low_latency()}}) {
    std::cout << "--- " << label << " ---\n";
    Table t({"n", "p", names[0], names[1], names[2], names[3], "winner"});
    for (int n : {256, 4096}) {
      for (int p : {4, 16}) {
        System s = random_system(n);
        double best = 1e300;
        int best_i = 0;
        std::vector<std::string> row{std::to_string(n), std::to_string(p)};
        for (int w = 0; w < 4; ++w) {
          const double tt = run(s, n, p, w, cfg);
          row.push_back(fmt_time(tt));
          if (tt < best) {
            best = tt;
            best_i = w;
          }
        }
        row.push_back(names[best_i]);
        t.add_row(row);
      }
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "shape check: the substructured algorithm wins at scale on the\n"
            << "high-latency machine (O(log p) message rounds); gather+Thomas\n"
            << "is competitive only for small n*p; cyclic reduction pays\n"
            << "log2(n) all-active communication rounds.\n";
  return 0;
}
