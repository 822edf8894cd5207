// E9 — §2: "the compiler produces the low-level details of the message
// passing code ... and can then generate efficient message passing code".
//
// Verifies that the runtime-generated communication matches closed-form
// expectations: message counts and payload bytes for the halo exchange,
// the substructured solver, and an ADI iteration.
#include <iostream>

#include "bench_common.hpp"
#include "machine/measure.hpp"
#include "kernels/tri.hpp"
#include "solvers/adi.hpp"

namespace kali {
namespace {

struct Traffic {
  std::uint64_t msgs;
  std::uint64_t bytes;
};

Traffic halo_traffic(int p_side, int n) {
  Machine m(p_side * p_side, bench::config_1989());
  Traffic out{};
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(p_side, p_side);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
    D2 a(ctx, pv, {n, n}, dists, {1, 1});
    a.fill([](std::array<int, 2> g) { return 1.0 * g[0] + g[1]; });
    PhaseTimer timer(ctx, pv);
    a.exchange_halo();
    PhaseStats s = timer.finish();
    if (ctx.rank() == 0) {
      out = {s.msgs, s.bytes};
    }
  });
  return out;
}

Traffic tri_traffic(int p, int n) {
  Machine m(p, bench::config_1989());
  Traffic out{};
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> f(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    f.fill([](std::array<int, 1> g) { return 1.0 + g[0]; });
    PhaseTimer timer(ctx, pv);
    tric(-1.0, 4.0, -1.0, f, x);
    PhaseStats s = timer.finish();
    if (ctx.rank() == 0) {
      out = {s.msgs, s.bytes};
    }
  });
  return out;
}

}  // namespace
}  // namespace kali

int main() {
  using namespace kali;
  bench::header("E9", "Generated communication vs closed form",
                "section 2 implicit-communication discussion");

  Table t({"operation", "measured msgs", "expected msgs", "measured bytes",
           "expected bytes"});

  {
    // Halo exchange on a p x p grid: interior edges = 2 * p * (p-1); two
    // messages per edge; n/p doubles each.
    for (int p : {2, 4}) {
      const int n = 64;
      const Traffic tr = halo_traffic(p, n);
      const std::uint64_t edges = static_cast<std::uint64_t>(2 * p * (p - 1));
      const std::uint64_t msgs = 2 * edges;
      const std::uint64_t bytes = msgs * static_cast<std::uint64_t>(n / p) * 8;
      t.add_row({"halo exchange " + std::to_string(p) + "x" + std::to_string(p),
                 std::to_string(tr.msgs), std::to_string(msgs),
                 std::to_string(tr.bytes), std::to_string(bytes)});
    }
  }
  {
    // Substructured tri on p procs: p-1 boundary-pair messages up the fold
    // (8 doubles each) and p-1 solution pairs down (2 doubles each).
    for (int p : {4, 8, 16}) {
      const Traffic tr = tri_traffic(p, 64 * p);
      const std::uint64_t msgs = static_cast<std::uint64_t>(2 * (p - 1));
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(p - 1) * (8 + 2) * 8;
      t.add_row({"tri solve p=" + std::to_string(p), std::to_string(tr.msgs),
                 std::to_string(msgs), std::to_string(tr.bytes),
                 std::to_string(bytes)});
    }
  }
  t.print(std::cout);
  std::cout << "\nevery row must match exactly: the runtime sends precisely\n"
            << "the messages the hand-derived communication pattern calls for.\n";
  return 0;
}
