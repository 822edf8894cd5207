#include "kernels/baselines.hpp"

#include <gtest/gtest.h>

#include "kernels/thomas.hpp"
#include "machine/context.hpp"
#include "machine/measure.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

struct System {
  std::vector<double> b, a, c, f, x;
};

System random_system(std::uint64_t seed, int n) {
  Rng rng(seed);
  System s;
  const auto un = static_cast<std::size_t>(n);
  s.b.assign(un, 0.0);
  s.a.assign(un, 0.0);
  s.c.assign(un, 0.0);
  s.f.assign(un, 0.0);
  s.x.assign(un, 0.0);
  for (std::size_t i = 0; i < un; ++i) {
    s.b[i] = i == 0 ? 0.0 : rng.uniform(-1, 1);
    s.c[i] = i + 1 == un ? 0.0 : rng.uniform(-1, 1);
    s.a[i] = std::abs(s.b[i]) + std::abs(s.c[i]) + rng.uniform(1.0, 2.0);
    s.f[i] = rng.uniform(-10, 10);
  }
  thomas_solve(s.b, s.a, s.c, s.f, s.x);
  return s;
}

using Solver = void (*)(const DistArray1<double>&, const DistArray1<double>&,
                        const DistArray1<double>&, const DistArray1<double>&,
                        DistArray1<double>&);

class BaselineP
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 public:
  static Solver solver(int which) {
    switch (which) {
      case 0:
        return &gather_thomas;
      case 1:
        return &pipelined_thomas;
      default:
        return &cyclic_reduction;
    }
  }
};

TEST_P(BaselineP, MatchesSequentialThomas) {
  const auto [which, p, n] = GetParam();
  System s = random_system(31u + static_cast<std::uint64_t>(which * 100 + p), n);
  Machine m(p);
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
    solver(which)(b, a, c, f, x);
    x.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_NEAR(x.at(g), s.x[static_cast<std::size_t>(g[0])], 1e-8)
          << "row " << g[0];
    });
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineP,
    ::testing::Combine(::testing::Values(0, 1, 2),   // solver
                       ::testing::Values(1, 2, 4),   // p (3 also legal but slow)
                       ::testing::Values(16, 37, 64)));  // n

TEST(Baselines, NonPowerOfTwoProcessorCountsWork) {
  // Unlike the substructured tri, the baselines have no 2^k restriction.
  System s = random_system(3, 30);
  Machine m(3);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<double> b(ctx, pv, {30}, {DimDist::block_dist()});
    DistArray1<double> a(ctx, pv, {30}, {DimDist::block_dist()});
    DistArray1<double> c(ctx, pv, {30}, {DimDist::block_dist()});
    DistArray1<double> f(ctx, pv, {30}, {DimDist::block_dist()});
    DistArray1<double> x(ctx, pv, {30}, {DimDist::block_dist()});
    b.fill([&](std::array<int, 1> g) { return s.b[static_cast<std::size_t>(g[0])]; });
    a.fill([&](std::array<int, 1> g) { return s.a[static_cast<std::size_t>(g[0])]; });
    c.fill([&](std::array<int, 1> g) { return s.c[static_cast<std::size_t>(g[0])]; });
    f.fill([&](std::array<int, 1> g) { return s.f[static_cast<std::size_t>(g[0])]; });
    pipelined_thomas(b, a, c, f, x);
    cyclic_reduction(b, a, c, f, x);
    x.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_NEAR(x.at(g), s.x[static_cast<std::size_t>(g[0])], 1e-8);
    });
  });
}

TEST(Baselines, CyclicReductionCommunicatesMoreThanPipelined) {
  // PCR's log2(n) all-active steps move far more messages than the chained
  // elimination — the communication-complexity contrast of paper ref [5].
  const int p = 8, n = 256;
  System s = random_system(17, n);
  auto msgs = [&](Solver solver) {
    Machine m(p);
    std::uint64_t count = 0;
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
      PhaseTimer timer(ctx, pv.group(ctx.rank()));
      solver(b, a, c, f, x);
      const PhaseStats ps = timer.finish();
      if (ctx.rank() == 0) {
        count = ps.msgs;
      }
    });
    return count;
  };
  EXPECT_GT(msgs(&cyclic_reduction), msgs(&pipelined_thomas));
}

}  // namespace
}  // namespace kali
