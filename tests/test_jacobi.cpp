// E1's correctness backbone: the three Jacobi variants (Listings 1-3) must
// produce identical iterates, and the KF1 version must match the hand
// message-passing version in communication structure.
#include "solvers/jacobi.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "machine/collectives.hpp"

namespace kali {
namespace {

double rhs_fn(int i, int j) {
  return 0.001 * std::sin(0.7 * i + 0.3 * j);
}

std::vector<double> run_seq(int n, int iters) {
  Machine m(1);
  std::vector<double> out;
  m.run([&](Context& ctx) { out = jacobi_seq(ctx, n, rhs_fn, iters); });
  return out;
}

class JacobiP : public ::testing::TestWithParam<int> {};

TEST_P(JacobiP, MessagePassingMatchesSequential) {
  const int p = GetParam();
  const int n = 16, iters = 7;
  auto ref = run_seq(n, iters);
  Machine m(p * p);
  std::vector<double> mp;
  m.run([&](Context& ctx) {
    auto out = jacobi_mp(ctx, ProcView::grid2(p, p), n, rhs_fn, iters);
    if (ctx.rank() == 0) {
      mp = out;
    }
  });
  ASSERT_EQ(mp.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_NEAR(mp[k], ref[k], 1e-13);
  }
}

TEST_P(JacobiP, Kf1MatchesSequential) {
  const int p = GetParam();
  const int n = 16, iters = 7;
  auto ref = run_seq(n, iters);
  Machine m(p * p);
  std::vector<double> kf1;
  m.run([&](Context& ctx) {
    auto out = jacobi_kf1(ctx, ProcView::grid2(p, p), n, rhs_fn, iters);
    if (ctx.rank() == 0) {
      kf1 = out;
    }
  });
  ASSERT_EQ(kf1.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_NEAR(kf1[k], ref[k], 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, JacobiP, ::testing::Values(1, 2, 4));

TEST(Jacobi, Kf1AndMpSendTheSameMessageCount) {
  // The compiler-generated communication (halo exchange) must match the
  // hand-coded guarded sends structurally: 4 edges per processor per
  // iteration, minus physical boundaries.
  const int p = 2, n = 16, iters = 3;
  auto run_and_count = [&](bool kf1) {
    Machine m(p * p);
    m.run([&](Context& ctx) {
      // Count only the iteration traffic, not the final gather.
      if (kf1) {
        (void)jacobi_kf1(ctx, ProcView::grid2(p, p), n, rhs_fn, iters);
      } else {
        (void)jacobi_mp(ctx, ProcView::grid2(p, p), n, rhs_fn, iters);
      }
    });
    return m.stats().totals().msgs_sent;
  };
  // 2x2 grid: each processor has 2 neighbours -> 8 edge messages per
  // iteration + the final collection through the gather tree, where every
  // non-root member forwards one counts message and one payload message.
  const auto expected = static_cast<std::uint64_t>(8 * iters + 2 * (p * p - 1));
  EXPECT_EQ(run_and_count(false), expected);
  EXPECT_EQ(run_and_count(true), expected);
}

TEST(Jacobi, Kf1SimulatedTimeWithinTenPercentOfHandMp) {
  // Paper §6: "there would be no difference between the execution time of
  // algorithms expressed in KF1, and those expressed in a message passing
  // language".  The runtime adds only the ghost-frame copy overhead.
  const int p = 2, n = 64, iters = 10;
  auto sim_time = [&](bool kf1) {
    Machine m(p * p);
    m.run([&](Context& ctx) {
      if (kf1) {
        (void)jacobi_kf1(ctx, ProcView::grid2(p, p), n, rhs_fn, iters,
                         /*collect=*/false);
      } else {
        (void)jacobi_mp(ctx, ProcView::grid2(p, p), n, rhs_fn, iters,
                        /*collect=*/false);
      }
    });
    return m.stats().max_clock();
  };
  const double t_mp = sim_time(false);
  const double t_kf1 = sim_time(true);
  EXPECT_LT(std::abs(t_kf1 - t_mp) / t_mp, 0.10);
}

TEST(Jacobi, ParallelSpeedupInSimulatedTime) {
  // Iteration speedup, like the 10%-equivalence test above: collection is
  // excluded because jacobi_seq never pays it, and the gather tree now
  // models result collection at honest aggregate bandwidth (a 64x64 field
  // funneling into one node costs real wire time on 2.5 MB/s links).
  const int n = 64, iters = 5;
  auto sim_time = [&](int p) {
    Machine m(p * p);
    m.run([&](Context& ctx) {
      if (p == 1) {
        (void)jacobi_seq(ctx, n, rhs_fn, iters);
      } else {
        (void)jacobi_mp(ctx, ProcView::grid2(p, p), n, rhs_fn, iters,
                        /*collect=*/false);
      }
    });
    return m.stats().max_clock();
  };
  const double t1 = sim_time(1);
  const double t4 = sim_time(4);  // 16 processors
  EXPECT_LT(t4, t1 / 4.0);  // well above 4x on 16 procs at this size
}

TEST(Jacobi, RejectsIndivisibleSize) {
  Machine m(4);
  EXPECT_THROW(m.run([&](Context& ctx) {
    (void)jacobi_mp(ctx, ProcView::grid2(2, 2), 15, rhs_fn, 1);
  }),
               Error);
}

}  // namespace
}  // namespace kali
