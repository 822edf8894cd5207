// E13 (extension) — ablations of this reproduction's own design choices
// (DESIGN.md section 4), so the costs of each mechanism are on the record:
//
//  (a) halo exchange mode: one-round star-stencil faces (default) vs the
//      corner-filling scheduled exchange with diagonal peers
//      (HaloCorners::kYes);
//  (b) mg3 cycle shape: V(1,0) as in Listing 9 vs the W(1,1) default
//      (gamma = 2 + post-smoothing) — convergence per simulated second;
//  (c) inspector schedule reuse vs re-inspecting every sparse multiply.
#include <iostream>
#include <numeric>

#include "bench_common.hpp"
#include "machine/measure.hpp"
#include "runtime/inspector.hpp"
#include "solvers/mg3.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

// ---------- (a) halo mode ----------
double halo_time(int p_side, int n, HaloCorners mode, int rounds) {
  Machine m(p_side * p_side, bench::config_1989());
  double out = 0.0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(p_side, p_side);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    D2 a(ctx, pv, {n, n}, dists, {1, 1});
    a.fill([](std::array<int, 2> g) { return 1.0 * g[0] + g[1]; });
    PhaseTimer timer(ctx, pv);
    for (int r = 0; r < rounds; ++r) {
      a.exchange_halo(mode);
    }
    const double t = timer.finish().makespan / rounds;
    if (ctx.rank() == 0) {
      out = t;
    }
  });
  return out;
}

// ---------- (b) mg3 cycle shape ----------
struct CycleOutcome {
  double factor;          // geometric-mean residual factor per cycle
  double time_per_cycle;  // simulated
};

CycleOutcome mg3_shape(int gamma, bool post, int plane_cycles) {
  const int n = 16, px = 2, py = 2, cycles = 3;
  Machine m(px * py, bench::config_1989());
  CycleOutcome out{};
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
    Mg3Options opts;
    opts.gamma = gamma;
    opts.post_zebra = post;
    opts.plane_cycles = plane_cycles;
    const double r0 = mg3_residual_norm(op, u, f);
    PhaseTimer timer(ctx, pv);
    for (int c = 0; c < cycles; ++c) {
      mg3_cycle(op, u, f, opts);
    }
    const double t = timer.finish().makespan / cycles;
    const double r = mg3_residual_norm(op, u, f);
    if (ctx.rank() == 0) {
      out.factor = std::pow(r / r0, 1.0 / cycles);
      out.time_per_cycle = t;
    }
  });
  return out;
}

// ---------- (c) inspector reuse ----------
struct SparsePattern {
  int n;
  std::vector<int> cols;  // per owned element, a pseudo-random read target
};

double gather_loop(int p, int n, int iters, bool reuse) {
  Machine m(p, bench::config_1989());
  double out = 0.0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    x.fill([](std::array<int, 1> g) { return 0.25 * g[0]; });
    Rng rng(11 + static_cast<std::uint64_t>(ctx.rank()));
    std::vector<int> wants;
    for (int l = 0; l < x.local_count(0) * 4; ++l) {
      wants.push_back(rng.uniform_int(0, n - 1));
    }
    PhaseTimer timer(ctx, pv);
    if (reuse) {
      GatherPlan plan = GatherPlan::build(x, wants);
      for (int it = 0; it < iters; ++it) {
        auto v = plan.execute(x);
        ctx.compute(static_cast<double>(v.size()));
      }
    } else {
      for (int it = 0; it < iters; ++it) {
        GatherPlan plan = GatherPlan::build(x, wants);  // re-inspect
        auto v = plan.execute(x);
        ctx.compute(static_cast<double>(v.size()));
      }
    }
    const double t = timer.finish().makespan / iters;
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
  bench::header("E13", "Design-choice ablations of this reproduction",
                "DESIGN.md section 4 mechanisms");

  {
    Table t({"halo mode", "grid", "procs", "sim time/exchange"});
    for (int p : {2, 4}) {
      t.add_row({"star faces, one round (default)", "64^2",
                 std::to_string(p * p),
                 fmt_time(halo_time(p, 64, HaloCorners::kNo, 5))});
      t.add_row({"corner-filling scheduled exchange", "64^2",
                 std::to_string(p * p),
                 fmt_time(halo_time(p, 64, HaloCorners::kYes, 5))});
    }
    t.print(std::cout);
    std::cout << "the corner mode pays diagonal-peer messages on top of the faces\n"
              << "— only worth it for 9-point-style stencils (none in this paper).\n\n";
  }
  {
    Table t({"mg3 cycle shape", "residual factor/cycle", "sim time/cycle",
             "time to 1e-6 (est)"});
    struct Shape {
      const char* name;
      int gamma;
      bool post;
      int planes;
    };
    for (Shape s : {Shape{"V(1,0), 1 plane cycle (Listing 9 literal)", 1, false, 1},
                    Shape{"V(1,1), 1 plane cycle (default)", 1, true, 1},
                    Shape{"W(1,0), 2 plane cycles", 2, false, 2},
                    Shape{"W(1,1), 2 plane cycles", 2, true, 2}}) {
      const CycleOutcome o = mg3_shape(s.gamma, s.post, s.planes);
      const double cycles_needed = std::log(1e-6) / std::log(o.factor);
      t.add_row({s.name, fmt(o.factor, 3), fmt_time(o.time_per_cycle),
                 fmt_time(cycles_needed * o.time_per_cycle)});
    }
    t.print(std::cout);
    std::cout << "the literal Listing 9 cycle (no post-smoothing) converges\n"
              << "but slowly with approximate plane solves; adding the\n"
              << "post-sweep — V(1,1) — is the cheapest path to 1e-6 and is\n"
              << "the library default (this table chose it).\n\n";
  }
  {
    Table t({"gather schedule", "p", "sim time/iteration"});
    for (int p : {4, 8}) {
      t.add_row({"inspector once, executor each iter (reuse)",
                 std::to_string(p), fmt_time(gather_loop(p, 4096, 8, true))});
      t.add_row({"re-inspect every iteration", std::to_string(p),
                 fmt_time(gather_loop(p, 4096, 8, false))});
    }
    t.print(std::cout);
    std::cout << "schedule reuse removes the index exchange from the loop —\n"
              << "the PARTI/Kali amortization (paper ref [17]).\n";
  }
  return 0;
}
