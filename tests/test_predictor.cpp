// The performance predictor must (a) track the simulator within a modest
// factor and (b) rank alternative configurations in the same order — the
// property that makes it usable as the paper's §2 tuning tool.
#include "metrics/predictor.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <vector>

#include "kernels/tri.hpp"
#include "machine/context.hpp"
#include "machine/measure.hpp"
#include "runtime/redistribute.hpp"
#include "solvers/jacobi.hpp"

namespace kali {
namespace {

double sim_tri(int n, int p) {
  Machine m(p);
  double out = 0.0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> f(ctx, pv, {n}, {DimDist::block_dist()});
    DistArray1<double> x(ctx, pv, {n}, {DimDist::block_dist()});
    f.fill([](std::array<int, 1> g) { return 1.0 + 0.1 * g[0]; });
    PhaseTimer timer(ctx, pv.group(ctx.rank()));
    tric(-1.0, 4.0, -1.0, f, x);
    const double t = timer.finish().makespan;
    if (ctx.rank() == 0) {
      out = t;
    }
  });
  return out;
}

double sim_jacobi(int n, int p_side) {
  Machine m(p_side * p_side);
  double out = 0.0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(p_side, p_side);
    PhaseTimer timer(ctx, pv.group(ctx.rank()));
    (void)jacobi_kf1(ctx, pv, n, [](int, int) { return 0.0; }, 4,
                     /*collect=*/false);
    const double t = timer.finish().makespan / 4.0;
    if (ctx.rank() == 0) {
      out = t;
    }
  });
  return out;
}

TEST(Predictor, MessageTimeMatchesCostModel) {
  MachineConfig cfg;
  Predictor pr(cfg, 2);
  Machine m(2, cfg);
  m.run([&](Context& ctx) {
    if (ctx.rank() == 0) {
      std::vector<double> v(100, 1.0);
      ctx.send_span<double>(1, 1, v);
    } else {
      (void)ctx.recv_vec<double>(0, 1);
      // rank 1's clock is exactly the delivery time of one 800-byte
      // message over 1 hop.
      EXPECT_NEAR(ctx.clock(), pr.message(800.0, 1), 1e-12);
    }
  });
}

class PredictTriP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PredictTriP, WithinThirtyPercentOfSimulation) {
  const auto [n, p] = GetParam();
  Predictor pr(MachineConfig{}, p);
  const double pred = pr.tri_solve(n, p);
  const double sim = sim_tri(n, p);
  EXPECT_LT(std::abs(pred - sim) / sim, 0.30)
      << "pred=" << pred << " sim=" << sim;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PredictTriP,
                         ::testing::Values(std::tuple{1024, 4},
                                           std::tuple{4096, 8},
                                           std::tuple{4096, 16},
                                           std::tuple{16384, 16}));

TEST(Predictor, JacobiWithinThirtyPercent) {
  for (int p : {2, 4}) {
    Predictor pr(MachineConfig{}, p * p);
    const double pred = pr.jacobi_iteration(64, p);
    const double sim = sim_jacobi(64, p);
    EXPECT_LT(std::abs(pred - sim) / sim, 0.30)
        << "p=" << p << " pred=" << pred << " sim=" << sim;
  }
}

TEST(Predictor, RanksProcessorGridShapesLikeSimulation) {
  // The E8 ablation, decided from the closed form alone: square beats
  // both degenerate shapes for ADI.
  Predictor pr(MachineConfig{}, 16);
  const double square = pr.adi_iteration(64, 4, 4, false);
  const double wide = pr.adi_iteration(64, 16, 1, false);
  const double tall = pr.adi_iteration(64, 1, 16, false);
  EXPECT_LT(square, wide);
  EXPECT_LT(square, tall);
}

TEST(Predictor, PipeliningPredictedFaster) {
  Predictor pr(MachineConfig{}, 16);
  EXPECT_LT(pr.adi_iteration(64, 4, 4, true), pr.adi_iteration(64, 4, 4, false));
  EXPECT_LT(pr.mtri_solve(16, 1024, 8), 16.0 * pr.tri_solve(1024, 8));
}

TEST(Predictor, ScalesWithProblemSize) {
  Predictor pr(MachineConfig{}, 8);
  EXPECT_GT(pr.tri_solve(8192, 8), pr.tri_solve(1024, 8));
  EXPECT_GT(pr.jacobi_iteration(128, 2), pr.jacobi_iteration(32, 2));
}

TEST(Predictor, NonPowerOfTwoProcsThrows) {
  Predictor pr(MachineConfig{}, 6);
  EXPECT_THROW((void)pr.tri_solve(128, 6), Error);
}

// Simulated makespan of the fft2-style transpose redistribution (every
// rank pair exchanges one slab) on p ranks, n x n doubles.
double sim_transpose(int n, int p, LinkContention contention,
                     IssueOrder order) {
  MachineConfig cfg;
  cfg.link_contention = contention;
  Machine m(p, cfg);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray2<double> rows(ctx, pv, {n, n},
                            {DimDist::block_dist(), DimDist::star()});
    DistArray2<double> cols(ctx, pv, {n, n},
                            {DimDist::star(), DimDist::block_dist()});
    rows.fill([](std::array<int, 2> g) { return 1.0 * g[0] + g[1]; });
    redistribute(ctx, rows, cols, order);
  });
  return m.stats().max_clock();
}

TEST(Predictor, ScheduledAllToAllTracksSimulator) {
  // Validate the contention-aware closed form against the simulator for
  // the transpose shape, with and without link contention.  The estimate
  // covers wire + overheads; pack/unpack compute (two flops per element)
  // is added here, as the header prescribes.
  const int n = 256, p = 8;
  MachineConfig cfg;
  Predictor pr(cfg, p);
  const double slab_bytes = 8.0 * (n / p) * (n / p);
  const double packing =
      2.0 * (n / p) * static_cast<double>(n) * cfg.flop_time;
  for (LinkContention contention :
       {LinkContention::kNone, LinkContention::kPorts}) {
    SCOPED_TRACE(contention == LinkContention::kPorts ? "contention"
                                                      : "no contention");
    const double pred = pr.all_to_all(p, slab_bytes, contention) + packing;
    const double sim =
        sim_transpose(n, p, contention, IssueOrder::kRoundSchedule);
    EXPECT_LT(std::abs(pred - sim) / sim, 0.30)
        << "pred=" << pred << " sim=" << sim;
  }
}

TEST(Predictor, NaiveAllToAllTracksSimulatorUnderContention) {
  const int n = 256, p = 8;
  MachineConfig cfg;
  Predictor pr(cfg, p);
  const double slab_bytes = 8.0 * (n / p) * (n / p);
  const double packing =
      2.0 * (n / p) * static_cast<double>(n) * cfg.flop_time;
  const double pred = pr.all_to_all_naive(p, slab_bytes) + packing;
  const double sim =
      sim_transpose(n, p, LinkContention::kPorts, IssueOrder::kPeerOrder);
  EXPECT_LT(std::abs(pred - sim) / sim, 0.30)
      << "pred=" << pred << " sim=" << sim;
}

TEST(Predictor, MessageStoreForwardMatchesCostModel) {
  // Uncontended store-and-forward delivery is exact: wire once per hop.
  MachineConfig cfg;
  cfg.topology = Topology::kRing;
  cfg.link_contention = LinkContention::kStoreForward;
  Predictor pr(cfg, 6);
  Machine m(6, cfg);
  m.run([&](Context& ctx) {
    if (ctx.rank() == 0) {
      std::vector<double> v(100, 1.0);
      ctx.send_span<double>(3, 1, v);
    } else if (ctx.rank() == 3) {
      (void)ctx.recv_vec<double>(0, 1);
      // Three ring hops, 800 bytes: three wire terms, two per_hop terms.
      EXPECT_NEAR(ctx.clock(), pr.message_store_forward(800.0, 3), 1e-12);
      EXPECT_GT(pr.message_store_forward(800.0, 3), pr.message(800.0, 3));
    }
  });
}

// Simulated makespan of the transpose under store-and-forward contention
// on an explicit topology (the SF sweep runs on meshes as well as the
// default hypercube).
double sim_transpose_topo(int n, int p, Topology topo, IssueOrder order) {
  MachineConfig cfg;
  cfg.topology = topo;
  cfg.link_contention = LinkContention::kStoreForward;
  Machine m(p, cfg);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray2<double> rows(ctx, pv, {n, n},
                            {DimDist::block_dist(), DimDist::star()});
    DistArray2<double> cols(ctx, pv, {n, n},
                            {DimDist::star(), DimDist::block_dist()});
    rows.fill([](std::array<int, 2> g) { return 1.0 * g[0] + g[1]; });
    redistribute(ctx, rows, cols, order);
  });
  return m.stats().max_clock();
}

TEST(Predictor, StoreForwardAllToAllTracksSimulator) {
  // The store-and-forward closed forms (busiest injection edge vs busiest
  // funnel edge, computed from route()) must track the per-edge simulator
  // within 30% for both issue orders, on the hypercube and on the mesh.
  const int n = 256;
  for (auto [topo, p] : {std::pair{Topology::kHypercube, 8},
                         std::pair{Topology::kMesh2D, 16}}) {
    SCOPED_TRACE(topo == Topology::kMesh2D ? "mesh" : "hypercube");
    MachineConfig cfg;
    cfg.topology = topo;
    Predictor pr(cfg, p);
    const double slab_bytes = 8.0 * (n / p) * (n / p);
    const double packing =
        2.0 * (n / p) * static_cast<double>(n) * cfg.flop_time;
    const double pred_sched =
        pr.all_to_all(p, slab_bytes, LinkContention::kStoreForward) + packing;
    const double sim_sched =
        sim_transpose_topo(n, p, topo, IssueOrder::kRoundSchedule);
    EXPECT_LT(std::abs(pred_sched - sim_sched) / sim_sched, 0.30)
        << "pred=" << pred_sched << " sim=" << sim_sched;
    const double pred_naive =
        pr.all_to_all_naive(p, slab_bytes, LinkContention::kStoreForward) +
        packing;
    const double sim_naive =
        sim_transpose_topo(n, p, topo, IssueOrder::kPeerOrder);
    EXPECT_LT(std::abs(pred_naive - sim_naive) / sim_naive, 0.30)
        << "pred=" << pred_naive << " sim=" << sim_naive;
    // The tuning answer must rank the same way as the simulator: round
    // order no worse than naive under store-and-forward.
    EXPECT_LT(pred_sched, pred_naive);
    EXPECT_LE(sim_sched, sim_naive);
  }
}

// Simulated makespan of the transpose written as a lockstep round loop
// (bench_scaling's pencil transpose): each rank sends its slab to the
// round partner and receives the partner's slab before advancing.  The
// compute charges are the blocking transpose's: self copy, pack, unpack.
double sim_transpose_lockstep(int n, int p, LinkContention contention) {
  MachineConfig cfg;
  cfg.link_contention = contention;
  Machine m(p, cfg);
  m.run([&](Context& ctx) {
    const CommSchedule sched(p);
    const std::vector<double> slab(static_cast<std::size_t>((n / p) * (n / p)),
                                   1.0);
    const auto elems = static_cast<double>(slab.size());
    ctx.compute(elems);  // self copy
    for (int r = 0; r < sched.rounds(); ++r) {
      const int q = sched.partner(r, ctx.rank());
      if (q != ctx.rank()) {
        ctx.send_span<double>(q, 7, std::span<const double>(slab));
        (void)ctx.recv_vec<double>(q, 7);
      }
    }
    ctx.compute(elems * (p - 1));  // pack
    ctx.compute(elems * (p - 1));  // unpack
  });
  return m.stats().max_clock();
}

TEST(Predictor, LockstepAllToAllTracksSimulator) {
  // The lockstep pacing model (every round's latency exposed, hop terms
  // summed exactly from the topology) must track the simulator within 30%
  // in all three contention tiers.
  const int n = 256, p = 8;
  MachineConfig cfg;
  Predictor pr(cfg, p);
  const double slab_bytes = 8.0 * (n / p) * (n / p);
  const double packing =
      2.0 * (n / p) * static_cast<double>(n) * cfg.flop_time;
  for (LinkContention tier :
       {LinkContention::kNone, LinkContention::kPorts,
        LinkContention::kStoreForward}) {
    SCOPED_TRACE(static_cast<int>(tier));
    const double pred = pr.all_to_all_lockstep(p, slab_bytes, tier) + packing;
    const double sim = sim_transpose_lockstep(n, p, tier);
    EXPECT_LT(std::abs(pred - sim) / sim, 0.30)
        << "pred=" << pred << " sim=" << sim;
  }
  // And it must expose lockstep's per-round latency cost in the
  // latency-dominated regime (small messages), which wire-dominated
  // exchanges amortize away.
  EXPECT_GT(pr.all_to_all_lockstep(p, 8.0, LinkContention::kPorts),
            pr.all_to_all(p, 8.0, LinkContention::kPorts));
}

// Simulated makespan of the scheduled all_gather collective: p ranks each
// contribute `count` doubles over the whole machine.
double sim_all_gather(int count, int p, LinkContention contention,
                      Topology topo) {
  MachineConfig cfg;
  cfg.link_contention = contention;
  cfg.topology = topo;
  Machine m(p, cfg);
  m.run([&](Context& ctx) {
    std::vector<int> ranks(static_cast<std::size_t>(p));
    std::iota(ranks.begin(), ranks.end(), 0);
    Group g(std::move(ranks), ctx.rank());
    std::vector<double> mine(static_cast<std::size_t>(count),
                             1.0 * ctx.rank());
    (void)all_gather(ctx, g, std::span<const double>(mine));
  });
  return m.stats().max_clock();
}

TEST(Predictor, AllGatherTracksSimulatorInAllTiers) {
  // The all_gather closed forms (wire-identical to the scheduled
  // transpose) must track the collective's simulated makespan within 30%
  // in every contention tier.  The concatenation compute (one op per
  // gathered element on every member) is added here, as the header
  // prescribes.
  const int count = 8192, p = 8;
  MachineConfig cfg;
  Predictor pr(cfg, p);
  const double bytes = 8.0 * count;
  const double merge = static_cast<double>(p) * count * cfg.flop_time;
  for (LinkContention tier :
       {LinkContention::kNone, LinkContention::kPorts,
        LinkContention::kStoreForward}) {
    SCOPED_TRACE(static_cast<int>(tier));
    const double pred = pr.all_gather(p, bytes, tier) + merge;
    const double sim = sim_all_gather(count, p, tier, Topology::kHypercube);
    EXPECT_LT(std::abs(pred - sim) / sim, 0.30)
        << "pred=" << pred << " sim=" << sim;
  }
}

TEST(Predictor, RanksScheduleAgainstNaiveLikeSimulation) {
  // The tuning question the predictor must answer: under contention the
  // round schedule beats naive issue order, and by roughly the simulated
  // margin; without contention the schedule is free.
  const int n = 256, p = 8;
  Predictor pr(MachineConfig{}, p);
  const double slab_bytes = 8.0 * (n / p) * (n / p);
  const double pred_sched = pr.all_to_all(p, slab_bytes, LinkContention::kPorts);
  const double pred_naive = pr.all_to_all_naive(p, slab_bytes);
  EXPECT_LT(pred_sched, pred_naive);
  const double sim_sched =
      sim_transpose(n, p, LinkContention::kPorts, IssueOrder::kRoundSchedule);
  const double sim_naive =
      sim_transpose(n, p, LinkContention::kPorts, IssueOrder::kPeerOrder);
  EXPECT_LT(sim_sched, sim_naive);
  // Predicted and simulated speedups agree within a third.
  const double pred_ratio = pred_naive / pred_sched;
  const double sim_ratio = sim_naive / sim_sched;
  EXPECT_LT(std::abs(pred_ratio - sim_ratio) / sim_ratio, 0.35)
      << "pred_ratio=" << pred_ratio << " sim_ratio=" << sim_ratio;
}

}  // namespace
}  // namespace kali
