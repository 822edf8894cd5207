// Differential tests for the split-phase runtime exchanges
// (exchange_halo_begin, redistribute_begin, copy_strided_dim_begin,
// copy_strided_dim_halo_begin), each finished by one batched receive
// (Context::recv_batch).  The contract under test is the one
// docs/machine-model.md states: overlapping communication with compute
// changes *when* wire time is paid, never *what* is computed or sent — so
// every split-phase form must produce byte-identical results, identical
// per-tag message ledgers, and (being built from the same deterministic
// batch algebra) traces that are bit-identical across host worker counts
// and all three link-contention tiers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>  // hardware_concurrency: host-side harness knob only
#include <type_traits>
#include <utility>
#include <vector>

#include "machine/context.hpp"
#include "machine/event_log.hpp"
#include "machine/machine.hpp"
#include "runtime/dist_array.hpp"
#include "runtime/doall.hpp"
#include "runtime/redistribute.hpp"
#include "runtime/remap.hpp"

namespace kali {
namespace {

MachineConfig make_config(LinkContention lc, int workers) {
  MachineConfig cfg;
  cfg.link_contention = lc;
  cfg.sim_workers = workers;
  return cfg;
}

constexpr LinkContention kTiers[] = {LinkContention::kNone,
                                     LinkContention::kPorts,
                                     LinkContention::kStoreForward};

const char* tier_name(LinkContention lc) {
  switch (lc) {
    case LinkContention::kNone:
      return "none";
    case LinkContention::kPorts:
      return "ports";
    case LinkContention::kStoreForward:
      return "store-forward";
  }
  return "?";
}

std::vector<int> worker_counts() {
  const unsigned hw = std::thread::hardware_concurrency();
  return {1, 4, hw == 0 ? 2 : static_cast<int>(hw)};
}

struct RunResult {
  std::vector<double> values;  // all ranks' owned values, rank-major
  MachineStats stats;
  std::string trace;
};

/// Run `prog(ctx, split, out)` on `nprocs` ranks; out collects this rank's
/// result values (each rank writes its own slot — no host race).
template <class Prog>
RunResult run_case(int nprocs, LinkContention lc, int workers, bool split,
                   Prog&& prog) {
  Machine m(nprocs, make_config(lc, workers));
  EventLog log(m.size());
  m.attach_event_log(&log);
  std::vector<std::vector<double>> per_rank(
      static_cast<std::size_t>(nprocs));
  m.run([&](Context& ctx) {
    prog(ctx, split, per_rank[static_cast<std::size_t>(ctx.rank())]);
  });
  RunResult r;
  for (const auto& v : per_rank) {
    r.values.insert(r.values.end(), v.begin(), v.end());
  }
  r.stats = m.stats();
  std::ostringstream os;
  log.write_trace(os);
  r.trace = os.str();
  return r;
}

void expect_values_byte_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  ASSERT_FALSE(a.values.empty());
  EXPECT_EQ(0, std::memcmp(a.values.data(), b.values.data(),
                           a.values.size() * sizeof(double)));
  // On mismatch, pinpoint the first diverging value for the log.
  for (std::size_t k = 0; k < a.values.size(); ++k) {
    ASSERT_EQ(a.values[k], b.values[k]) << "first divergence at index " << k;
  }
}

/// The message ledgers must match exactly: overlapping moves wire time, not
/// messages.  (Clocks — wait_time, overlap counters — legitimately move.)
void expect_ledgers_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.stats.per_proc.size(), b.stats.per_proc.size());
  for (std::size_t i = 0; i < a.stats.per_proc.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    const ProcCounters& pa = a.stats.per_proc[i];
    const ProcCounters& pb = b.stats.per_proc[i];
    EXPECT_EQ(pa.msgs_sent, pb.msgs_sent);
    EXPECT_EQ(pa.bytes_sent, pb.bytes_sent);
    EXPECT_EQ(pa.msgs_recv, pb.msgs_recv);
    EXPECT_EQ(pa.bytes_recv, pb.bytes_recv);
    EXPECT_EQ(pa.sent_by_tag, pb.sent_by_tag);
    EXPECT_EQ(pa.recv_by_tag, pb.recv_by_tag);
    EXPECT_EQ(pa.self_msgs_by_tag, pb.self_msgs_by_tag);
  }
  EXPECT_TRUE(a.stats.unmatched_by_tag().empty());
  EXPECT_TRUE(b.stats.unmatched_by_tag().empty());
}

/// The full differential matrix for one workload: for every contention
/// tier, the split-phase run must match the blocking oracle's result bytes
/// and ledgers, and split-phase traces/ledgers must be bit-identical across
/// host worker counts.
template <class Prog>
void run_differential_matrix(int nprocs, Prog&& prog) {
  for (LinkContention lc : kTiers) {
    SCOPED_TRACE(std::string("tier=") + tier_name(lc));
    const RunResult oracle = run_case(nprocs, lc, 1, /*split=*/false, prog);
    EXPECT_EQ(oracle.stats.overlap_wire_time(), 0.0);
    RunResult first_on;
    bool have_first = false;
    for (int workers : worker_counts()) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      RunResult on = run_case(nprocs, lc, workers, /*split=*/true, prog);
      expect_values_byte_identical(on, oracle);
      expect_ledgers_identical(on, oracle);
      EXPECT_GT(on.stats.overlap_wire_time(), 0.0);
      if (!have_first) {
        first_on = std::move(on);
        have_first = true;
      } else {
        EXPECT_EQ(on.trace, first_on.trace);
        expect_ledgers_identical(on, first_on);
      }
    }
  }
}

// --- workloads -------------------------------------------------------------

/// Raw split-phase halo: a 5-point stencil over a (block, block) array,
/// interior ring between post and wait, boundary ring after.
void halo_prog(Context& ctx, bool split, std::vector<double>& out) {
  const int n = 24;
  ProcView pv = ProcView::grid2(2, 2);
  using D2 = DistArray2<double>;
  const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
  D2 u(ctx, pv, {n, n}, dists, {1, 1});
  D2 r(ctx, pv, {n, n}, dists);
  u.fill([&](std::array<int, 2> g) {
    return 0.25 * g[0] + std::sin(0.3 * g[1]);
  });
  auto body = [&](int i, int j) {
    r(i, j) = 4.0 * u.at_halo({i, j}) - u.at_halo({i - 1, j}) -
              u.at_halo({i + 1, j}) - u.at_halo({i, j - 1}) -
              u.at_halo({i, j + 1});
  };
  if (split) {
    auto ex = u.exchange_halo_begin();
    doall2_ring(u, Range{0, n - 1}, Range{0, n - 1}, 1, Ring::kInterior, body,
                6.0);
    ex.finish();
    doall2_ring(u, Range{0, n - 1}, Range{0, n - 1}, 1, Ring::kBoundary, body,
                6.0);
  } else {
    u.exchange_halo();
    doall2(r, Range{0, n - 1}, Range{0, n - 1}, body, 6.0);
  }
  r.for_each_owned([&](std::array<int, 2> g) { out.push_back(r.at(g)); });
}

/// Owned-cell work run between begin and finish (or after the blocking
/// call): reads only `a`'s owned cells, never anything in flight.
template <class T, int R>
void owned_work(const DistArray<T, R>& a, std::vector<double>& out) {
  double n = 0.0;
  a.for_each_owned([&](const typename DistArray<T, R>::Extents& g) {
    out.push_back(std::sqrt(1.0 + a.at(g) * a.at(g)));
    n += 1.0;
  });
  a.context().compute(4.0 * n);
}

/// The ADI transpose chain: (block, block) -> (block, *) -> (*, block),
/// each redistribution split-phase with owned-cell work in its window.
void transpose_prog(Context& ctx, bool split, std::vector<double>& out) {
  const int n = 24;
  using D2 = DistArray2<double>;
  const ProcView grid = ProcView::grid2(2, 2);
  const ProcView line = ProcView::grid1(4);
  D2 a(ctx, grid, {n, n}, {DimDist::block_dist(), DimDist::block_dist()});
  D2 rows(ctx, line, {n, n}, {DimDist::block_dist(), DimDist::star()});
  D2 cols(ctx, line, {n, n}, {DimDist::star(), DimDist::block_dist()});
  a.fill([](std::array<int, 2> g) { return 0.5 * g[0] - std::cos(0.2 * g[1]); });
  std::vector<double> work;
  if (split) {
    auto ex = redistribute_begin(ctx, a, rows);
    owned_work(a, work);
    ex.finish();
    auto ex2 = redistribute_begin(ctx, rows, cols);
    owned_work(rows, work);
    ex2.finish();
  } else {
    redistribute(ctx, a, rows);
    owned_work(a, work);
    redistribute(ctx, rows, cols);
    owned_work(rows, work);
  }
  cols.for_each_owned([&](std::array<int, 2> g) { out.push_back(cols.at(g)); });
  out.insert(out.end(), work.begin(), work.end());
}

using Mg2Dists = DistArray2<double>::Dists;
const Mg2Dists kMg2Dists{DimDist::star(), DimDist::block_dist()};

/// mg2's restriction level switch: the fine residual split by line parity
/// onto the coarse layout, re by stride-2 copy_strided_dim and ro by
/// copy_strided_dim_halo (ghosts fused in), both posted before either is
/// drained, then the full-weighting stencil over re and ro's ghosts.
void restriction_prog(Context& ctx, bool split, std::vector<double>& out) {
  const int nx = 16, ny = 32, nyc = ny / 2;
  using D2 = DistArray2<double>;
  const ProcView pv = ProcView::grid1(ctx.nprocs());
  D2 r(ctx, pv, {nx + 1, ny + 1}, kMg2Dists, {0, 1});
  D2 re(ctx, pv, {nx + 1, nyc + 1}, kMg2Dists);
  D2 ro(ctx, pv, {nx + 1, nyc + 1}, kMg2Dists, {0, 1});
  D2 g(ctx, pv, {nx + 1, nyc + 1}, kMg2Dists);
  r.fill([](std::array<int, 2> x) { return std::sin(0.4 * x[0] + 0.7 * x[1]); });
  std::vector<double> work;
  if (split) {
    auto ex_re = copy_strided_dim_begin(ctx, r, re, 1, /*s_stride=*/2,
                                        /*s_off=*/0, /*d_stride=*/1,
                                        /*d_off=*/0, nyc + 1);
    auto ex_ro = copy_strided_dim_halo_begin(ctx, r, ro, 1, /*s_stride=*/2,
                                             /*s_off=*/1, /*d_stride=*/1,
                                             /*d_off=*/0, nyc);
    owned_work(r, work);
    ex_re.finish();
    ex_ro.finish();
  } else {
    copy_strided_dim(ctx, r, re, 1, /*s_stride=*/2, /*s_off=*/0,
                     /*d_stride=*/1, /*d_off=*/0, nyc + 1);
    copy_strided_dim_halo(ctx, r, ro, 1, /*s_stride=*/2, /*s_off=*/1,
                          /*d_stride=*/1, /*d_off=*/0, nyc);
    owned_work(r, work);
  }
  doall2(
      g, Range{1, nx - 1}, Range{1, nyc - 1},
      [&](int i, int K) {
        g(i, K) = 0.25 * ro.at_halo({i, K - 1}) + 0.5 * re(i, K) +
                  0.25 * ro.at_halo({i, K});
      },
      4.0);
  g.for_each_owned([&](std::array<int, 2> x) { out.push_back(g.at(x)); });
  out.insert(out.end(), work.begin(), work.end());
}

/// mg2's interpolation level switch: the coarse correction spread onto the
/// fine even lines with its ghosts fused in, then the odd lines averaged
/// from those ghosts.
void interpolation_prog(Context& ctx, bool split, std::vector<double>& out) {
  const int nx = 16, ny = 32, nyc = ny / 2;
  using D2 = DistArray2<double>;
  const ProcView pv = ProcView::grid1(ctx.nprocs());
  D2 v(ctx, pv, {nx + 1, nyc + 1}, kMg2Dists, {0, 1});
  D2 vtmp(ctx, pv, {nx + 1, ny + 1}, kMg2Dists, {0, 1});
  D2 u(ctx, pv, {nx + 1, ny + 1}, kMg2Dists, {0, 1});
  v.fill([](std::array<int, 2> x) { return 1.0 + 0.1 * x[0] * x[1]; });
  u.fill([](std::array<int, 2> x) { return std::cos(0.3 * x[0] - 0.5 * x[1]); });
  std::vector<double> work;
  if (split) {
    auto ex = copy_strided_dim_halo_begin(ctx, v, vtmp, 1, /*s_stride=*/1,
                                          /*s_off=*/0, /*d_stride=*/2,
                                          /*d_off=*/0, nyc + 1);
    owned_work(u, work);
    ex.finish();
  } else {
    copy_strided_dim_halo(ctx, v, vtmp, 1, /*s_stride=*/1, /*s_off=*/0,
                          /*d_stride=*/2, /*d_off=*/0, nyc + 1);
    owned_work(u, work);
  }
  doall2(
      u, Range{1, nx - 1}, Range{2, ny - 2, 2},
      [&](int i, int j) { u(i, j) += vtmp(i, j); }, 1.0);
  doall2(
      u, Range{1, nx - 1}, Range{1, ny - 1, 2},
      [&](int i, int j) {
        u(i, j) += 0.5 * (vtmp.at_halo({i, j - 1}) + vtmp.at_halo({i, j + 1}));
      },
      3.0);
  u.for_each_owned([&](std::array<int, 2> x) { out.push_back(u.at(x)); });
  out.insert(out.end(), work.begin(), work.end());
}

// --- the differential matrix ----------------------------------------------

TEST(AsyncDifferential, SplitPhaseHaloMatchesBlocking) {
  run_differential_matrix(4, halo_prog);
}

TEST(AsyncDifferential, TransposeRedistributeMatchesBlocking) {
  run_differential_matrix(4, transpose_prog);
}

TEST(AsyncDifferential, RestrictionRemapPairMatchesBlocking) {
  run_differential_matrix(4, restriction_prog);
}

TEST(AsyncDifferential, InterpolationRemapMatchesBlocking) {
  run_differential_matrix(4, interpolation_prog);
}

// --- handle semantics ------------------------------------------------------

static_assert(!std::is_copy_constructible_v<PendingExchange>);
static_assert(!std::is_copy_assignable_v<PendingExchange>);

TEST(AsyncExchange, MovedHandleFinishesTheExchange) {
  // A moved-from handle is inactive and its finish() is a no-op; the moved
  // one takes the receives and unpacks into the original array.
  auto run = [](bool move) {
    Machine m(4, make_config(LinkContention::kNone, 1));
    m.run([&](Context& ctx) {
      using D2 = DistArray2<double>;
      const D2::Dists bb{DimDist::block_dist(), DimDist::block_dist()};
      const ProcView grid = ProcView::grid2(2, 2);
      D2 u(ctx, grid, {8, 8}, bb, {1, 1});
      D2 rows(ctx, ProcView::grid1(4), {8, 8},
              {DimDist::block_dist(), DimDist::star()});
      u.fill([](std::array<int, 2> g) { return 8.0 * g[0] + g[1] + 1.0; });
      PendingExchange halo = u.exchange_halo_begin();
      PendingExchange tr = redistribute_begin(ctx, u, rows);
      if (move) {
        PendingExchange halo2 = std::move(halo);
        PendingExchange tr2;
        tr2 = std::move(tr);
        EXPECT_FALSE(halo.active());
        EXPECT_FALSE(tr.active());
        halo.finish();
        tr.finish();
        EXPECT_TRUE(halo2.active());
        halo2.finish();
        tr2.finish();
      } else {
        halo.finish();
        tr.finish();
      }
      if (ctx.rank() == 0) {
        EXPECT_EQ(u.at_halo({4, 0}), 33.0);
        EXPECT_EQ(u.at_halo({0, 4}), 5.0);
      }
      rows.for_each_owned([&](std::array<int, 2> g) {
        EXPECT_EQ(rows.at(g), 8.0 * g[0] + g[1] + 1.0);
      });
    });
    return m.stats();
  };
  const MachineStats direct = run(false);
  const MachineStats moved = run(true);
  EXPECT_EQ(moved.clocks, direct.clocks);
  EXPECT_EQ(moved.overlap_wire_time(), direct.overlap_wire_time());
  EXPECT_EQ(moved.overlap_hidden_time(), direct.overlap_hidden_time());
}

TEST(AsyncExchange, OverlapLedgerSeesHiddenWireTime) {
  // Ranks that compute through the in-flight window record both the window
  // and the hidden portion; ranks that finish at once hide only what their
  // own sends and packing covered.
  auto run = [](double flops) {
    Machine m(2, make_config(LinkContention::kNone, 1));
    m.run([&](Context& ctx) {
      DistArray1<double> a(ctx, ProcView::grid1(2), {512},
                           {DimDist::block_dist()}, {1});
      auto ex = a.exchange_halo_begin();
      ctx.compute(flops);
      ex.finish();
    });
    return m.stats();
  };
  const MachineStats busy = run(1e6);  // plenty of work: all of it hidden
  EXPECT_GT(busy.overlap_wire_time(), 0.0);
  EXPECT_GT(busy.overlap_hidden_time(), 0.0);
  EXPECT_EQ(busy.overlap_ratio(), 1.0);
  const MachineStats idle = run(0.0);
  EXPECT_EQ(idle.overlap_wire_time(), busy.overlap_wire_time());
  EXPECT_LT(idle.overlap_ratio(), 1.0);
}

// --- clocks pinned to recorded values --------------------------------------

/// Every split-phase form on 16 ranks: a halo with its interior ring in the
/// window, a two-step transpose chain, and a restriction level switch with
/// both remaps open at once.
void pinned_prog(Context& ctx) {
  constexpr int n = 64;
  using D2 = DistArray2<double>;
  const DimDist blk = DimDist::block_dist();
  const DimDist star = DimDist::star();
  const ProcView grid = ProcView::grid2(4, 4);
  const ProcView line = ProcView::grid1(16);

  D2 u(ctx, grid, {n, n}, {blk, blk}, {1, 1});
  D2 r(ctx, grid, {n, n}, {blk, blk});
  u.fill([](std::array<int, 2> g) { return 0.25 * g[0] + std::sin(0.3 * g[1]); });
  auto body = [&](int i, int j) {
    r(i, j) = 4.0 * u.at_halo({i, j}) - u.at_halo({i - 1, j}) -
              u.at_halo({i + 1, j}) - u.at_halo({i, j - 1}) -
              u.at_halo({i, j + 1});
  };
  auto ex = u.exchange_halo_begin();
  doall2_ring(u, Range{0, n - 1}, Range{0, n - 1}, 1, Ring::kInterior, body, 6.0);
  ex.finish();
  doall2_ring(u, Range{0, n - 1}, Range{0, n - 1}, 1, Ring::kBoundary, body, 6.0);

  D2 rows(ctx, line, {n, n}, {blk, star});
  D2 cols(ctx, line, {n, n}, {star, blk});
  auto t1 = redistribute_begin(ctx, r, rows);
  ctx.compute(2000.0);
  t1.finish();
  auto t2 = redistribute_begin(ctx, rows, cols);
  ctx.compute(500.0);
  t2.finish();

  D2 re(ctx, line, {n, n / 2}, {star, blk});
  D2 ro(ctx, line, {n, n / 2}, {star, blk}, {0, 1});
  auto ro_ex = copy_strided_dim_halo_begin(ctx, cols, ro, 1, 2, 1, 1, 0, n / 2);
  auto re_ex = copy_strided_dim_begin(ctx, cols, re, 1, 2, 0, 1, 0, n / 2);
  ctx.compute(3000.0);
  ro_ex.finish();
  re_ex.finish();
}

struct RankPin {
  double clock;
  double overlap_wire;
  double overlap_hidden;
  double wait;
};

// Per rank: final clock, overlap_wire_time, overlap_hidden_time, wait_time.
// Recorded (printf "%a", Release build, sim_workers = 1) from the
// implementation this batched receive replaced, in which every split-phase
// form posted its receives into a mailbox operation table at begin and
// completed them together at finish.  The batch algebra must reproduce
// them bit for bit.
constexpr RankPin kPinned[6][16] = {
    // LinkContention::kNone, Topology::kHypercube
    {
      {0x1.5db3397dd00fcp-10, 0x1.4df8b1572580fp-8, 0x1.494e27ab3fb47p-8, 0x1.2aa26af9731e4p-14},
      {0x1.66b7c4fdcb72cp-10, 0x1.65cce373017f9p-8, 0x1.628cbd1244a65p-8, 0x1.a013305e6c9d8p-15},
      {0x1.669ced0b30b61p-10, 0x1.66d952ed0cde6p-8, 0x1.639fe288f6b44p-8, 0x1.9cb8320b15074p-15},
      {0x1.664c6533608p-10, 0x1.62c922f420cfp-8, 0x1.5e1e99483b028p-8, 0x1.2aa26af9731e2p-14},
      {0x1.6c61522a6f3fcp-10, 0x1.53c3cc730ab9ap-8, 0x1.4f1942c724ed4p-8, 0x1.2aa26af9731ecp-14},
      {0x1.6cb1da023f75cp-10, 0x1.588fe40e31f24p-8, 0x1.555673aa1bc84p-8, 0x1.9cb8320b1506p-15},
      {0x1.6cb1da023f75cp-10, 0x1.59161bcb37a1cp-8, 0x1.55dcab672177ap-8, 0x1.9cb8320b1506p-15},
      {0x1.6bdb1a6d69905p-10, 0x1.586e561ef0863p-8, 0x1.53e55a624c259p-8, 0x1.223eef291827ap-14},
      {0x1.6c61522a6f3fcp-10, 0x1.5677051a1b345p-8, 0x1.51cc7b6e3567dp-8, 0x1.2aa26af9731ecp-14},
      {0x1.6cb1da023f75cp-10, 0x1.5937a9ba790dap-8, 0x1.55fe395662e38p-8, 0x1.9cb8320b1506p-15},
      {0x1.6cb1da023f75cp-10, 0x1.59bde1777ebdp-8, 0x1.568471136893p-8, 0x1.9cb8320b1506p-15},
      {0x1.6bdb1a6d69905p-10, 0x1.56e91ae12cd64p-8, 0x1.52601f248875ap-8, 0x1.223eef291827ap-14},
      {0x1.664c6533608p-10, 0x1.63a698859d639p-8, 0x1.5efc0ed9b7971p-8, 0x1.2aa26af9731e4p-14},
      {0x1.66b7c4fdcb72cp-10, 0x1.670196d8f4f97p-8, 0x1.63c1707838203p-8, 0x1.a013305e6c9d8p-15},
      {0x1.669ced0b30b61p-10, 0x1.67f32e60659b9p-8, 0x1.64b9bdfc4f717p-8, 0x1.9cb8320b15074p-15},
      {0x1.5d47d9b3651dp-10, 0x1.4ef7b4d7e381ap-8, 0x1.4a68031e9871dp-8, 0x1.23ec6e52c3f22p-14},
    },
    // LinkContention::kNone, Topology::kMesh2D
    {
      {0x1.6052502eec7cep-10, 0x1.4dddd9648ac44p-8, 0x1.488b8a0c5ddc8p-8, 0x1.5493d60b39f04p-14},
      {0x1.63fdd65a1448fp-10, 0x1.75ec15677051dp-8, 0x1.735a6aafa1431p-8, 0x1.48d55be787638p-15},
      {0x1.63fdd65a1448fp-10, 0x1.7693db13b76d2p-8, 0x1.7402305be85e6p-8, 0x1.48d55be787638p-15},
      {0x1.68eb7be47ced2p-10, 0x1.635cc6aa73dcbp-8, 0x1.5e0a775246f4fp-8, 0x1.5493d60b39f02p-14},
      {0x1.6f0068db8bacdp-10, 0x1.4e78331784812p-8, 0x1.4925e3bf57997p-8, 0x1.5493d60b39f04p-14},
      {0x1.6a12c3512308ap-10, 0x1.62570d2d0f2d2p-8, 0x1.5fc56275401e4p-8, 0x1.48d55be78762p-15},
      {0x1.6a12c3512308ap-10, 0x1.62dd44ea14dc8p-8, 0x1.604b9a3245cdcp-8, 0x1.48d55be78762p-15},
      {0x1.6e7a311e85fd6p-10, 0x1.527af71723326p-8, 0x1.4d4a35ae37b68p-8, 0x1.4c305a3adef92p-14},
      {0x1.6f0068db8bacdp-10, 0x1.5083a6124de08p-8, 0x1.4b3156ba20f8cp-8, 0x1.5493d60b39f04p-14},
      {0x1.6a12c3512308ap-10, 0x1.62fed2d956486p-8, 0x1.606d28218739ap-8, 0x1.48d55be78762p-15},
      {0x1.6a12c3512308ap-10, 0x1.63850a965bf7ep-8, 0x1.60f35fde8ce9p-8, 0x1.48d55be78762p-15},
      {0x1.6e7a311e85fd6p-10, 0x1.519d8185a69dcp-8, 0x1.4c6cc01cbb21ep-8, 0x1.4c305a3adef92p-14},
      {0x1.68eb7be47ced2p-10, 0x1.6433863f49c22p-8, 0x1.5ee136e71cda6p-8, 0x1.5493d60b39f04p-14},
      {0x1.63fdd65a1448fp-10, 0x1.7720c8cd63cbcp-8, 0x1.748f1e1594bcep-8, 0x1.48d55be787638p-15},
      {0x1.63fdd65a1448fp-10, 0x1.77adb687102a5p-8, 0x1.751c0bcf411b9p-8, 0x1.48d55be787638p-15},
      {0x1.5fe6f064818a2p-10, 0x1.4ee392e1ef74p-8, 0x1.49ac1b7c5d49p-8, 0x1.4dddd9648ac42p-14},
    },
    // LinkContention::kPorts, Topology::kHypercube
    {
      {0x1.357cb98f0266dp-9, 0x1.5e65102511315p-7, 0x1.3a67041b17b35p-7, 0x1.1ff0604fcbefcp-10},
      {0x1.4d9abd8607ec4p-9, 0x1.6b2ff9c2cf1cep-7, 0x1.43002fd0a8237p-7, 0x1.417e4f9137caep-10},
      {0x1.4d9abd8607ec4p-9, 0x1.721ba64eb3c2p-7, 0x1.49ebdc5c8cc8ap-7, 0x1.417e4f9137caep-10},
      {0x1.4eea48de9622ep-9, 0x1.6c10ca529f092p-7, 0x1.42ca7feb72aa1p-7, 0x1.4a32533962f7ep-10},
      {0x1.4d9abd8607ec4p-9, 0x1.6100cbd7da46cp-7, 0x1.38d101e5b34d7p-7, 0x1.417e4f9137caep-10},
      {0x1.4eea48de9622cp-9, 0x1.5dbd4a78ca16p-7, 0x1.35fc3b4f6166fp-7, 0x1.3e08794b45782p-10},
      {0x1.4eea48de9622cp-9, 0x1.60ba54fb04177p-7, 0x1.38f945d19b687p-7, 0x1.3e08794b45783p-10},
      {0x1.5039d43724596p-9, 0x1.5e4d9330c9cc3p-7, 0x1.357603925bb79p-7, 0x1.46bc7cf370a52p-10},
      {0x1.5039d43724596p-9, 0x1.6154aeadfdd47p-7, 0x1.387d1f0f8fbfdp-7, 0x1.46bc7cf370a52p-10},
      {0x1.4eea48de9622cp-9, 0x1.611192cf7afccp-7, 0x1.395083a6124dbp-7, 0x1.3e08794b45783p-10},
      {0x1.4d9abd8607ec4p-9, 0x1.61c36976bc1edp-7, 0x1.3a563d2376fd6p-7, 0x1.3b69629a290b3p-10},
      {0x1.4d9abd8607ec4p-9, 0x1.5df9b05aa63e8p-7, 0x1.35c9e6687f453p-7, 0x1.417e4f9137caep-10},
      {0x1.4eea48de9622ep-9, 0x1.623f9038c7c76p-7, 0x1.38f945d19b687p-7, 0x1.4a32533962f7ep-10},
      {0x1.4d9abd8607ec4p-9, 0x1.5fa72f8452096p-7, 0x1.377765922b101p-7, 0x1.417e4f9137caep-10},
      {0x1.4d9abd8607ec4p-9, 0x1.5fa72f8452096p-7, 0x1.377765922b101p-7, 0x1.417e4f9137caep-10},
      {0x1.357cb98f0266dp-9, 0x1.50e4f4e1becc1p-7, 0x1.2ce6e8d7c54e2p-7, 0x1.1ff0604fcbefcp-10},
    },
    // LinkContention::kPorts, Topology::kMesh2D
    {
      {0x1.3935abb377912p-9, 0x1.5def9f5fac37cp-7, 0x1.390356cc956f4p-7, 0x1.27624498b6446p-10},
      {0x1.4eb498f960a98p-9, 0x1.73789da08f56cp-7, 0x1.4b025cd1922e5p-7, 0x1.43b20677e9456p-10},
      {0x1.4eb498f960a98p-9, 0x1.7a538334d3464p-7, 0x1.51dd4265d61d9p-7, 0x1.43b20677e9456p-10},
      {0x1.5153afaa7d16ap-9, 0x1.71a99087a2203p-7, 0x1.47c8ec6d7c044p-7, 0x1.4f0520d130df6p-10},
      {0x1.52a33b030b4d2p-9, 0x1.6213f14e8c54dp-7, 0x1.38a207fd24833p-7, 0x1.4b8f4a8b3e8cap-10},
      {0x1.4d650da0d273p-9, 0x1.664c6533607f7p-7, 0x1.3eeca4d968bc6p-7, 0x1.3afe02cfbe18bp-10},
      {0x1.4d650da0d273p-9, 0x1.6d274ac7a46edp-7, 0x1.45c78a6dacabbp-7, 0x1.3afe02cfbe18bp-10},
      {0x1.5039d43724596p-9, 0x1.5f4285b68dc6p-7, 0x1.366af6181fb16p-7, 0x1.46bc7cf370a53p-10},
      {0x1.5153afaa7d16ap-9, 0x1.618a5e93334ddp-7, 0x1.386c5817ef09dp-7, 0x1.48f033da221fap-10},
      {0x1.4c4b322d79b5cp-9, 0x1.654350b7a8782p-7, 0x1.3e2a073a86e47p-7, 0x1.38ca4be90c9e2p-10},
      {0x1.4d650da0d273p-9, 0x1.6bd7bf6f16384p-7, 0x1.4477ff151e753p-7, 0x1.3afe02cfbe18bp-10},
      {0x1.51895f8fb28fep-9, 0x1.633127c03869bp-7, 0x1.3a05b54ba6c76p-7, 0x1.495b93a48d123p-10},
      {0x1.5153afaa7d16ap-9, 0x1.62b1a5ffd9694p-7, 0x1.38d101e5b34d6p-7, 0x1.4f0520d130df6p-10},
      {0x1.4d9abd8607ec4p-9, 0x1.660ca45330ff2p-7, 0x1.3ddcda610a05dp-7, 0x1.417e4f9137caep-10},
      {0x1.4d650da0d273p-9, 0x1.6798958d9b5e6p-7, 0x1.3f763794c1c35p-7, 0x1.4112efc6ccd86p-10},
      {0x1.37e6205ae95aap-9, 0x1.528f190d173f8p-7, 0x1.2df6b3502404ap-7, 0x1.24c32de799d75p-10},
    },
    // LinkContention::kStoreForward, Topology::kHypercube
    {
      {0x1.14d2f5dbb9cf9p-9, 0x1.0455d0162d68dp-7, 0x1.d10469f20c215p-8, 0x1.bd39b1d275828p-11},
      {0x1.4983d790752dap-9, 0x1.04a9b2ec50f67p-7, 0x1.baff44ef1d597p-8, 0x1.395083a6124d8p-10},
      {0x1.46796114edcdcp-9, 0x1.0e52a91a401d1p-7, 0x1.cfd66c88bf56dp-8, 0x1.333b96af038dcp-10},
      {0x1.64261a45fc63ap-9, 0x1.3b66079bd5b3fp-7, 0x1.0cd0c8dacfc4cp-7, 0x1.74a9f6082f794p-10},
      {0x1.5ef558dd10e7cp-9, 0x1.1cc45be503247p-7, 0x1.e07bd63a33d86p-8, 0x1.6433863f49c1cp-10},
      {0x1.4b3ec2b36e56ep-9, 0x1.ee59e54ea3d1fp-8, 0x1.a0ad8a116659ep-8, 0x1.36b16cf4f5e06p-10},
      {0x1.48344c37e6f72p-9, 0x1.0c00bf42a08e8p-7, 0x1.cbda5e85c754bp-8, 0x1.309c7ffde720cp-10},
      {0x1.819d2391d58p-9, 0x1.27d7b55e1b3e5p-7, 0x1.e54ea3d201c01p-8, 0x1.a9831ba8d2f24p-10},
      {0x1.819d2391d58p-9, 0x1.0ff61748f1e13p-7, 0x1.b58b67a7af061p-8, 0x1.a9831ba8d2f24p-10},
      {0x1.4b3ec2b36e56ep-9, 0x1.052934acaff6cp-7, 0x1.bca60e1c22757p-8, 0x1.36b16cf4f5e04p-10},
      {0x1.4488c60cbf2b2p-9, 0x1.04160f35fde8cp-7, 0x1.bddac18215ef3p-8, 0x1.294573a79788cp-10},
      {0x1.5d701d9f4d37cp-9, 0x1.0986917f18e4cp-7, 0x1.bac2df0d4130fp-8, 0x1.61290fc3c261bp-10},
      {0x1.5f2b08c24661p-9, 0x1.20a591f56069bp-7, 0x1.e69e2f2a8ff66p-8, 0x1.6ab3d300c374p-10},
      {0x1.4983d790752dap-9, 0x1.03bb766333abep-7, 0x1.b922cbdce2c45p-8, 0x1.395083a6124d7p-10},
      {0x1.42cddae9c601cp-9, 0x1.07faa044ae85ap-7, 0x1.c4fc1df3300dfp-8, 0x1.2be48a58b3f5cp-10},
      {0x1.11ada76d97b31p-9, 0x1.0cb295e9e1b08p-7, 0x1.e3509cd085beep-8, 0x1.b0a47819ed108p-11},
    },
    // LinkContention::kStoreForward, Topology::kMesh2D
    {
      {0x1.6be88666b6ee3p-9, 0x1.b7e7627a489b4p-8, 0x1.54b563fa7b5bcp-8, 0x1.8cc7f9ff34fe8p-10},
      {0x1.668f8111e3574p-9, 0x1.a54096c904c1p-7, 0x1.76d39bf3e6edp-7, 0x1.7367d6a8eea0fp-10},
      {0x1.66c530f718d0ap-9, 0x1.aa999c1dd857ep-7, 0x1.7c1f354f6d257p-7, 0x1.73d336735993bp-10},
      {0x1.c7805cb1b1be6p-9, 0x1.00e6afcce1c57p-7, 0x1.72f5c0e1dcff4p-8, 0x1.1daf3d6fcd177p-9},
      {0x1.d6139d6bb6318p-9, 0x1.e9581dce472p-8, 0x1.54bc19f7220acp-8, 0x1.293807ae4a2acp-9},
      {0x1.5831f03d145d8p-9, 0x1.92d98bf7f066dp-7, 0x1.68c692f6e8292p-7, 0x1.5097c80841edcp-10},
      {0x1.58750c1b97354p-9, 0x1.94368349cbfbdp-7, 0x1.6a12c35123083p-7, 0x1.511dffc5479d4p-10},
      {0x1.c7805cb1b1be6p-9, 0x1.e39a6eabaf45bp-8, 0x1.56480b318c69fp-8, 0x1.1aa4c6f445b79p-9},
      {0x1.c7c3789034962p-9, 0x1.e24ae353210f2p-8, 0x1.54d6f1e9bcc78p-8, 0x1.1ae7e2d2c88f6p-9},
      {0x1.5831f03d145d8p-9, 0x1.92e6f7f13dc54p-7, 0x1.68d3fef035879p-7, 0x1.5097c80841edcp-10},
      {0x1.58750c1b97354p-9, 0x1.948a661fef898p-7, 0x1.6a66a6274695dp-7, 0x1.511dffc5479d3p-10},
      {0x1.d4c4121327fbp-9, 0x1.eae40f08b17f4p-8, 0x1.56efd0ddd3853p-8, 0x1.27e87c55bbf43p-9},
      {0x1.c7c3789034962p-9, 0x1.fa47595ae528dp-8, 0x1.6b4e2cb3bd313p-8, 0x1.1df2594e4fef3p-9},
      {0x1.6575a59e8a9a2p-9, 0x1.a6216758d4ad6p-7, 0x1.77fae3608d089p-7, 0x1.71341fc23d26bp-10},
      {0x1.66c530f718d0ap-9, 0x1.a63f9a49c2c1ap-7, 0x1.77c5337b578f1p-7, 0x1.73d336735993bp-10},
      {0x1.6c1e364bec679p-9, 0x1.b94459cc24304p-8, 0x1.55f78359bc33ep-8, 0x1.8d3359c99ff14p-10},
    },
};

TEST(AsyncPinned, SplitPhaseClocksMatchRecordedValues) {
  const Topology topos[] = {Topology::kHypercube, Topology::kMesh2D};
  std::size_t k = 0;
  for (LinkContention lc : kTiers) {
    for (Topology t : topos) {
      SCOPED_TRACE(std::string("tier=") + tier_name(lc) +
                   (t == Topology::kHypercube ? " hypercube" : " mesh"));
      MachineConfig cfg = make_config(lc, 1);
      cfg.topology = t;
      Machine m(16, cfg);
      m.run(pinned_prog);
      const MachineStats s = m.stats();
      for (std::size_t r = 0; r < 16; ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        const RankPin& pin = kPinned[k][r];
        EXPECT_EQ(s.clocks[r], pin.clock);
        EXPECT_EQ(s.per_proc[r].overlap_wire_time, pin.overlap_wire);
        EXPECT_EQ(s.per_proc[r].overlap_hidden_time, pin.overlap_hidden);
        EXPECT_EQ(s.per_proc[r].wait_time, pin.wait);
      }
      ++k;
    }
  }
}

}  // namespace
}  // namespace kali
