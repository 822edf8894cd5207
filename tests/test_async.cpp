// Differential tests for the one exchange path: every face halo and box
// exchange (exchange_halo, redistribute, copy_strided_dim,
// copy_strided_dim_halo and their _begin forms) is a split-phase exchange
// finished by one batched receive (Context::recv_batch); each blocking form
// is its _begin form finished at once.  The contract under test is the one
// docs/machine-model.md states: overlapping communication with compute
// changes *when* wire time is paid, never *what* is computed or sent — so
// the one path, with or without work in its window, must produce
// byte-identical results and identical per-tag message ledgers to the
// blocking loops it replaced (tests/oracles/blocking_exchange.hpp), and
// (being built from the same deterministic batch algebra) traces that are
// bit-identical across host worker counts and all three link-contention
// tiers.
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
#include "oracles/blocking_exchange.hpp"
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

/// How a workload runs its exchanges.
enum class Path {
  kOracle,    ///< the blocking loops of tests/oracles/blocking_exchange.hpp
  kBlocking,  ///< the runtime's blocking forms (_begin(...).finish())
  kSplit,     ///< the runtime's _begin forms, with work in the window
};

struct RunResult {
  std::vector<double> values;  // all ranks' owned values, rank-major
  MachineStats stats;
  std::string trace;
};

/// Run `prog(ctx, path, out)` on `nprocs` ranks; out collects this rank's
/// result values (each rank writes its own slot — no host race).
template <class Prog>
RunResult run_case(int nprocs, LinkContention lc, int workers, Path path,
                   Prog&& prog) {
  Machine m(nprocs, make_config(lc, workers));
  EventLog log(m.size());
  m.attach_event_log(&log);
  std::vector<std::vector<double>> per_rank(
      static_cast<std::size_t>(nprocs));
  m.run([&](Context& ctx) {
    prog(ctx, path, per_rank[static_cast<std::size_t>(ctx.rank())]);
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
/// tier, both runtime paths must match the blocking oracle's result bytes
/// and ledgers, and their traces/ledgers must be bit-identical across host
/// worker counts.
template <class Prog>
void run_differential_matrix(int nprocs, Prog&& prog) {
  for (LinkContention lc : kTiers) {
    SCOPED_TRACE(std::string("tier=") + tier_name(lc));
    const RunResult oracle = run_case(nprocs, lc, 1, Path::kOracle, prog);
    EXPECT_EQ(oracle.stats.overlap_wire_time(), 0.0);
    for (Path path : {Path::kBlocking, Path::kSplit}) {
      SCOPED_TRACE(path == Path::kSplit ? "split" : "blocking");
      RunResult first;
      bool have_first = false;
      for (int workers : worker_counts()) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        RunResult on = run_case(nprocs, lc, workers, path, prog);
        expect_values_byte_identical(on, oracle);
        expect_ledgers_identical(on, oracle);
        EXPECT_GT(on.stats.overlap_wire_time(), 0.0);
        if (!have_first) {
          first = std::move(on);
          have_first = true;
        } else {
          EXPECT_EQ(on.trace, first.trace);
          expect_ledgers_identical(on, first);
        }
      }
    }
  }
}

// --- workloads -------------------------------------------------------------

/// A 5-point stencil over a (block, block) array: split, the interior
/// runs while the halo is in flight.
void halo_prog(Context& ctx, Path path, std::vector<double>& out) {
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
  if (path == Path::kSplit) {
    doall_overlap(u.exchange_halo_begin(), u, {Range{0, n - 1}, Range{0, n - 1}},
                  body, 6.0);
  } else {
    if (path == Path::kOracle) {
      oracles::blocking_halo(u);
    } else {
      u.exchange_halo();
    }
    doall2(r, Range{0, n - 1}, Range{0, n - 1}, body, 6.0);
  }
  r.for_each_owned([&](std::array<int, 2> g) { out.push_back(r.at(g)); });
}

/// A 3-D face halo on a 2 x 2 grid of (star, block, block) slabs, as mg3's
/// residual uses it.
void halo3_prog(Context& ctx, Path path, std::vector<double>& out) {
  const int n = 9;
  using D3 = DistArray3<double>;
  const typename D3::Dists dists{DimDist::star(), DimDist::block_dist(),
                                 DimDist::block_dist()};
  D3 u(ctx, ProcView::grid2(2, 2), {n, n, n}, dists, {0, 1, 1});
  u.fill([](std::array<int, 3> g) { return g[0] + 0.5 * g[1] - 0.25 * g[2]; });
  if (path == Path::kOracle) {
    oracles::blocking_halo(u);
  } else {
    u.exchange_halo();
  }
  for (int i = 0; i < n; ++i) {
    for (int j = u.own_lower(1) - 1; j <= u.own_upper(1) + 1; ++j) {
      for (int k = u.own_lower(2) - 1; k <= u.own_upper(2) + 1; ++k) {
        out.push_back(u.at_halo({i, j, k}));
      }
    }
  }
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
void transpose_prog(Context& ctx, Path path, std::vector<double>& out) {
  const int n = 24;
  using D2 = DistArray2<double>;
  const ProcView grid = ProcView::grid2(2, 2);
  const ProcView line = ProcView::grid1(4);
  D2 a(ctx, grid, {n, n}, {DimDist::block_dist(), DimDist::block_dist()});
  D2 rows(ctx, line, {n, n}, {DimDist::block_dist(), DimDist::star()});
  D2 cols(ctx, line, {n, n}, {DimDist::star(), DimDist::block_dist()});
  a.fill([](std::array<int, 2> g) { return 0.5 * g[0] - std::cos(0.2 * g[1]); });
  std::vector<double> work;
  if (path == Path::kSplit) {
    auto ex = redistribute_begin(ctx, a, rows);
    owned_work(a, work);
    ex.finish();
    auto ex2 = redistribute_begin(ctx, rows, cols);
    owned_work(rows, work);
    ex2.finish();
  } else if (path == Path::kBlocking) {
    redistribute(ctx, a, rows);
    owned_work(a, work);
    redistribute(ctx, rows, cols);
    owned_work(rows, work);
  } else {
    oracles::blocking_redistribute(ctx, a, rows);
    owned_work(a, work);
    oracles::blocking_redistribute(ctx, rows, cols);
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
void restriction_prog(Context& ctx, Path path, std::vector<double>& out) {
  const int nx = 16, ny = 32, nyc = ny / 2;
  using D2 = DistArray2<double>;
  const ProcView pv = ProcView::grid1(ctx.nprocs());
  D2 r(ctx, pv, {nx + 1, ny + 1}, kMg2Dists, {0, 1});
  D2 re(ctx, pv, {nx + 1, nyc + 1}, kMg2Dists);
  D2 ro(ctx, pv, {nx + 1, nyc + 1}, kMg2Dists, {0, 1});
  D2 g(ctx, pv, {nx + 1, nyc + 1}, kMg2Dists);
  r.fill([](std::array<int, 2> x) { return std::sin(0.4 * x[0] + 0.7 * x[1]); });
  std::vector<double> work;
  if (path == Path::kSplit) {
    auto ex_re = copy_strided_dim_begin(ctx, r, re, 1, /*s_stride=*/2,
                                        /*s_off=*/0, /*d_stride=*/1,
                                        /*d_off=*/0, nyc + 1);
    auto ex_ro = copy_strided_dim_halo_begin(ctx, r, ro, 1, /*s_stride=*/2,
                                             /*s_off=*/1, /*d_stride=*/1,
                                             /*d_off=*/0, nyc);
    owned_work(r, work);
    ex_re.finish();
    ex_ro.finish();
  } else if (path == Path::kBlocking) {
    copy_strided_dim(ctx, r, re, 1, /*s_stride=*/2, /*s_off=*/0,
                     /*d_stride=*/1, /*d_off=*/0, nyc + 1);
    copy_strided_dim_halo(ctx, r, ro, 1, /*s_stride=*/2, /*s_off=*/1,
                          /*d_stride=*/1, /*d_off=*/0, nyc);
    owned_work(r, work);
  } else {
    oracles::blocking_copy_strided_dim(ctx, r, re, 1, 2, 0, 1, 0, nyc + 1);
    oracles::blocking_copy_strided_dim(ctx, r, ro, 1, 2, 1, 1, 0, nyc,
                                       /*fuse_halo=*/true);
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
void interpolation_prog(Context& ctx, Path path, std::vector<double>& out) {
  const int nx = 16, ny = 32, nyc = ny / 2;
  using D2 = DistArray2<double>;
  const ProcView pv = ProcView::grid1(ctx.nprocs());
  D2 v(ctx, pv, {nx + 1, nyc + 1}, kMg2Dists, {0, 1});
  D2 vtmp(ctx, pv, {nx + 1, ny + 1}, kMg2Dists, {0, 1});
  D2 u(ctx, pv, {nx + 1, ny + 1}, kMg2Dists, {0, 1});
  v.fill([](std::array<int, 2> x) { return 1.0 + 0.1 * x[0] * x[1]; });
  u.fill([](std::array<int, 2> x) { return std::cos(0.3 * x[0] - 0.5 * x[1]); });
  std::vector<double> work;
  if (path == Path::kSplit) {
    auto ex = copy_strided_dim_halo_begin(ctx, v, vtmp, 1, /*s_stride=*/1,
                                          /*s_off=*/0, /*d_stride=*/2,
                                          /*d_off=*/0, nyc + 1);
    owned_work(u, work);
    ex.finish();
  } else if (path == Path::kBlocking) {
    copy_strided_dim_halo(ctx, v, vtmp, 1, /*s_stride=*/1, /*s_off=*/0,
                          /*d_stride=*/2, /*d_off=*/0, nyc + 1);
    owned_work(u, work);
  } else {
    oracles::blocking_copy_strided_dim(ctx, v, vtmp, 1, 1, 0, 2, 0, nyc + 1,
                                       /*fuse_halo=*/true);
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

TEST(AsyncDifferential, HaloMatchesBlockingOracle) {
  run_differential_matrix(4, halo_prog);
}

TEST(AsyncDifferential, Halo3dMatchesBlockingOracle) {
  run_differential_matrix(4, halo3_prog);
}

TEST(AsyncDifferential, TransposeRedistributeMatchesBlockingOracle) {
  run_differential_matrix(4, transpose_prog);
}

TEST(AsyncDifferential, RestrictionRemapPairMatchesBlockingOracle) {
  run_differential_matrix(4, restriction_prog);
}

TEST(AsyncDifferential, InterpolationRemapMatchesBlockingOracle) {
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

/// Every split-phase form on 16 ranks: a halo with its interior in the
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
  doall_overlap(u.exchange_halo_begin(), u, {Range{0, n - 1}, Range{0, n - 1}},
                body, 6.0);

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
// Recorded (printf "%a", Release build, sim_workers = 1) from the batch
// charge rule: each message's receive, then its unpack, in ascending
// (send_time, src, seq) order.  HaloChargesLikeHandWrittenBatch below checks
// the halo phase against a hand-written send + recv_batch program.
constexpr RankPin kPinned[6][16] = {
    // LinkContention::kNone, Topology::kHypercube
    {
      {0x1.5b9a5a89b9524p-10, 0x1.4d9abd8607ecbp-8, 0x1.49766b9727cfap-8, 0x1.09147bb807428p-14},
      {0x1.6341eeb7d9204p-10, 0x1.6b2c9ec47bc5ap-8, 0x1.68c9edf53b811p-8, 0x1.315867a02249p-15},
      {0x1.6341eeb7d9204p-10, 0x1.6c3fc43b2dd3bp-8, 0x1.69dd136bed8f2p-8, 0x1.315867a02249p-15},
      {0x1.65e10568f58d6p-10, 0x1.5b49d2b1e91bfp-8, 0x1.56ba20f89e0c2p-8, 0x1.23ec6e52c3f2p-14},
      {0x1.6bdb1a6d69907p-10, 0x1.4c73761961d0fp-8, 0x1.47ea7a5cbd705p-8, 0x1.223eef291827cp-14},
      {0x1.6956dbaee7ep-10, 0x1.5df6555c52e76p-8, 0x1.5b93a48d12a2ep-8, 0x1.315867a02249p-15},
      {0x1.6956dbaee7ep-10, 0x1.5e9e1b089a02cp-8, 0x1.5c3b6a3959be2p-8, 0x1.315867a02249p-15},
      {0x1.6bdb1a6d69907p-10, 0x1.4f4186b30d084p-8, 0x1.4ab88af668a7ap-8, 0x1.223eef291827cp-14},
      {0x1.6bdb1a6d69907p-10, 0x1.4f4186b30d084p-8, 0x1.4ab88af668a7ap-8, 0x1.223eef291827cp-14},
      {0x1.6956dbaee7ep-10, 0x1.5e9e1b089a02cp-8, 0x1.5c3b6a3959be2p-8, 0x1.315867a02249p-15},
      {0x1.6956dbaee7ep-10, 0x1.5f45e0b4e11ep-8, 0x1.5ce32fe5a0d96p-8, 0x1.315867a02249p-15},
      {0x1.6bdb1a6d69907p-10, 0x1.4d57a1a78514cp-8, 0x1.48cea5eae0b42p-8, 0x1.223eef291827cp-14},
      {0x1.6433863f49c27p-10, 0x1.637e5499b548ap-8, 0x1.5f5a02aad52bap-8, 0x1.09147bb807428p-14},
      {0x1.6341eeb7d9204p-10, 0x1.6c7c2a1d09fc3p-8, 0x1.6a19794dc9b7ap-8, 0x1.315867a02249p-15},
      {0x1.6341eeb7d9204p-10, 0x1.6d23efc951178p-8, 0x1.6ac13efa10d2fp-8, 0x1.315867a02249p-15},
      {0x1.5b9a5a89b9524p-10, 0x1.4cf2f7d9c0d17p-8, 0x1.48cea5eae0b46p-8, 0x1.09147bb807428p-14},
    },
    // LinkContention::kNone, Topology::kMesh2D
    {
      {0x1.5e39713ad5bf6p-10, 0x1.4e8c550d788ecp-8, 0x1.49c03d7251566p-8, 0x1.3305e6c9ce148p-14},
      {0x1.61946f8e2d555p-10, 0x1.775d2eaf3ff46p-8, 0x1.7565ddaa6aa28p-8, 0x1.f75104d551d4p-16},
      {0x1.60a2d806bcb33p-10, 0x1.7cebe3e949048p-8, 0x1.7b30f8c64fdb4p-8, 0x1.baeb22f9294cp-16},
      {0x1.68801c1a11fa8p-10, 0x1.5ca6ca03c4b0dp-8, 0x1.576f529e3285cp-8, 0x1.4dddd9648ac4p-14},
      {0x1.6e7a311e85fd9p-10, 0x1.47ea7a5cbd707p-8, 0x1.42b9b8f3d1f48p-8, 0x1.4c305a3adef94p-14},
      {0x1.66b7c4fdcb72ep-10, 0x1.68801c1a11fa3p-8, 0x1.66c530f718d0fp-8, 0x1.baeb22f9294ap-16},
      {0x1.66b7c4fdcb72ep-10, 0x1.6927e1c659158p-8, 0x1.676cf6a35fec3p-8, 0x1.baeb22f9294ap-16},
      {0x1.6e7a311e85fd9p-10, 0x1.4a10c54a218c8p-8, 0x1.44e003e13610ap-8, 0x1.4c305a3adef94p-14},
      {0x1.6e7a311e85fd9p-10, 0x1.4a10c54a218c8p-8, 0x1.44e003e136108p-8, 0x1.4c305a3adef94p-14},
      {0x1.66b7c4fdcb72ep-10, 0x1.6927e1c659157p-8, 0x1.676cf6a35fec3p-8, 0x1.baeb22f9294ap-16},
      {0x1.66b7c4fdcb72ep-10, 0x1.69cfa772a030cp-8, 0x1.6814bc4fa7077p-8, 0x1.baeb22f9294ap-16},
      {0x1.6e7a311e85fd9p-10, 0x1.48cea5eae0b44p-8, 0x1.439de481f5386p-8, 0x1.4c305a3adef94p-14},
      {0x1.66d29cf0662f9p-10, 0x1.6517b1cd6d05ep-8, 0x1.604b9a3245cdap-8, 0x1.3305e6c9ce148p-14},
      {0x1.61946f8e2d555p-10, 0x1.78e91fe9aa536p-8, 0x1.76f1cee4d501ap-8, 0x1.f75104d551d4p-16},
      {0x1.61946f8e2d555p-10, 0x1.7990e595f16ecp-8, 0x1.779994911c1cep-8, 0x1.f75104d551d4p-16},
      {0x1.5e39713ad5bf6p-10, 0x1.4de48f6131738p-8, 0x1.491877c60a3b2p-8, 0x1.3305e6c9ce148p-14},
    },
    // LinkContention::kPorts, Topology::kHypercube
    {
      {0x1.303e8c2cc98c9p-9, 0x1.5d9bbc8988aa2p-7, 0x1.3aed3bd81d62cp-7, 0x1.1574058b5a3b2p-10},
      {0x1.4785d08ef92c9p-9, 0x1.6aa9c205c96d8p-7, 0x1.43ff33516624p-7, 0x1.355475a31a4b4p-10},
      {0x1.4785d08ef92c9p-9, 0x1.71956e91ae12ap-7, 0x1.4aeadfdd4ac92p-7, 0x1.355475a31a4b4p-10},
      {0x1.48d55be787633p-9, 0x1.6b4776b71682p-7, 0x1.4386678dadd3p-7, 0x1.3e08794b45784p-10},
      {0x1.4785d08ef92c9p-9, 0x1.60d887ebf22bcp-7, 0x1.3a2df9378ee25p-7, 0x1.355475a31a4b4p-10},
      {0x1.48d55be787631p-9, 0x1.5de58e64b231p-7, 0x1.37a9ba790d31fp-7, 0x1.31de9f5d27f89p-10},
      {0x1.48d55be787631p-9, 0x1.60e298e6ec328p-7, 0x1.3aa6c4fb47338p-7, 0x1.31de9f5d27f89p-10},
      {0x1.4a24e7401599bp-9, 0x1.5e254f44e1b13p-7, 0x1.36d2fae4374c7p-7, 0x1.3a92a30553258p-10},
      {0x1.4a24e7401599bp-9, 0x1.612c6ac215b97p-7, 0x1.39da16616b54bp-7, 0x1.3a92a30553258p-10},
      {0x1.48d55be787631p-9, 0x1.612c6ac215b96p-7, 0x1.3af096d670ba5p-7, 0x1.31de9f5d27f89p-10},
      {0x1.4785d08ef92c9p-9, 0x1.61de416956db8p-7, 0x1.3bf65053d56a1p-7, 0x1.2f3f88ac0b8b9p-10},
      {0x1.4785d08ef92c9p-9, 0x1.5dd16c6ebe238p-7, 0x1.3726ddba5ada1p-7, 0x1.355475a31a4b4p-10},
      {0x1.48d55be787633p-9, 0x1.61763c9d3f406p-7, 0x1.39b52d73d6915p-7, 0x1.3e08794b45784p-10},
      {0x1.4785d08ef92c9p-9, 0x1.5f20f7c74c5a2p-7, 0x1.38766912e910bp-7, 0x1.355475a31a4b4p-10},
      {0x1.4785d08ef92c9p-9, 0x1.5f20f7c74c5a2p-7, 0x1.38766912e910bp-7, 0x1.355475a31a4b4p-10},
      {0x1.303e8c2cc98c9p-9, 0x1.501ba14636451p-7, 0x1.2d6d2094cafdap-7, 0x1.1574058b5a3b2p-10},
    },
    // LinkContention::kPorts, Topology::kMesh2D
    {
      {0x1.342d2e3674304p-9, 0x1.5ca014071e014p-7, 0x1.38f5ead34810ep-7, 0x1.1d51499eaf828p-10},
      {0x1.48d55be787633p-9, 0x1.728706191eb4dp-7, 0x1.4b88948e97ddcp-7, 0x1.37f38c5436b88p-10},
      {0x1.48d55be787633p-9, 0x1.7a6e5b276e02fp-7, 0x1.536fe99ce72bep-7, 0x1.37f38c5436b88p-10},
      {0x1.4b747298a3d03p-9, 0x1.71814c9bba05p-7, 0x1.491877c60a3adp-7, 0x1.4346a6ad7e524p-10},
      {0x1.4cc3fdf13206dp-9, 0x1.61804d9839471p-7, 0x1.3986338b47c71p-7, 0x1.3fd0d0678bffcp-10},
      {0x1.4785d08ef92c9p-9, 0x1.6616b54e2b06p-7, 0x1.402ec438a9949p-7, 0x1.2f3f88ac0b8b9p-10},
      {0x1.4785d08ef92c9p-9, 0x1.6dfe0a5c7a542p-7, 0x1.48161946f8e2bp-7, 0x1.2f3f88ac0b8b9p-10},
      {0x1.4a24e7401599bp-9, 0x1.5fc8bd7393756p-7, 0x1.38766912e910bp-7, 0x1.3a92a30553258p-10},
      {0x1.4b747298a3d03p-9, 0x1.612c6ac215b96p-7, 0x1.3986338b47c72p-7, 0x1.3d31b9b66f928p-10},
      {0x1.463645366af61p-9, 0x1.651b0ccbc05d2p-7, 0x1.3f86fe8c62796p-7, 0x1.2ca071faef1e9p-10},
      {0x1.4785d08ef92c9p-9, 0x1.6cae7f03ec1dap-7, 0x1.46c68dee6aac3p-7, 0x1.2f3f88ac0b8b9p-10},
      {0x1.4b747298a3d03p-9, 0x1.63b75f7d3e191p-7, 0x1.3c1128467026bp-7, 0x1.3d31b9b66f928p-10},
      {0x1.4b747298a3d03p-9, 0x1.621e0249865bap-7, 0x1.39b52d73d6915p-7, 0x1.4346a6ad7e524p-10},
      {0x1.4785d08ef92c9p-9, 0x1.65aeb082136aep-7, 0x1.3f0421cdb0217p-7, 0x1.355475a31a4b4p-10},
      {0x1.4785d08ef92c9p-9, 0x1.67a60186e8bccp-7, 0x1.40fb72d285735p-7, 0x1.355475a31a4b4p-10},
      {0x1.32dda2dde5f9bp-9, 0x1.5266d5212f248p-7, 0x1.2f108ec37cc1dp-7, 0x1.1ab232ed93156p-10},
    },
    // LinkContention::kStoreForward, Topology::kHypercube
    {
      {0x1.10002843ebe82p-9, 0x1.03cf985927b96p-7, 0x1.d2616143e7b62p-8, 0x1.a9ee7b733de44p-11},
      {0x1.43a49a7e9be75p-9, 0x1.05227eb00947ap-7, 0x1.bee07aff7a9f1p-8, 0x1.2d9209825fc08p-10},
      {0x1.40cfd3e84a00dp-9, 0x1.0ebe08e4ab0fcp-7, 0x1.d381f2b3e722bp-8, 0x1.27e87c55bbf39p-10},
      {0x1.5e46dd34231d5p-9, 0x1.3a7470146511cp-7, 0x1.0d570097d5743p-7, 0x1.68eb7be47cec4p-10},
      {0x1.59161bcb37a17p-9, 0x1.1c814006804cbp-7, 0x1.e2e53d061acc3p-8, 0x1.58750c1b9734ep-10},
      {0x1.4529d5bc5f975p-9, 0x1.f06558496d313p-8, 0x1.a5c37387b7192p-8, 0x1.2a879306d860ep-10},
      {0x1.421f5f40d8377p-9, 0x1.0d5db6947c236p-7, 0x1.d19ec3a505de8p-8, 0x1.2472a60fc9a12p-10},
      {0x1.7bf3966531b31p-9, 0x1.26e61dd6aa9c2p-7, 0x1.e6403b5972623p-8, 0x1.9e30014f8b582p-10},
      {0x1.7bf3966531b31p-9, 0x1.0f1f57b41bfbcp-7, 0x1.b6b2af145521ap-8, 0x1.9e30014f8b581p-10},
      {0x1.4529d5bc5f975p-9, 0x1.06a103f126484p-7, 0x1.c2a0232096787p-8, 0x1.2a879306d860cp-10},
      {0x1.3e73d915b06b7p-9, 0x1.0580728126dcp-7, 0x1.c3b9fe93ef35bp-8, 0x1.1d1b99b97a092p-10},
      {0x1.57c69072a96adp-9, 0x1.093609a748aedp-7, 0x1.bcf695f3f2abbp-8, 0x1.55d5f56a7ac78p-10},
      {0x1.594bcbb06d1abp-9, 0x1.2011ee3f0d5bfp-7, 0x1.e8668646d67e1p-8, 0x1.5ef558dd10e7p-10},
      {0x1.43a49a7e9be75p-9, 0x1.04196a3451405p-7, 0x1.bcce52080a907p-8, 0x1.2d9209825fc09p-10},
      {0x1.3cee9dd7ecbb9p-9, 0x1.0781d480f634bp-7, 0x1.c6fa24f4ac0f3p-8, 0x1.2026103501691p-10},
      {0x1.0ca529f094523p-9, 0x1.0bf6ae47a6879p-7, 0x1.e45d0c4a911d8p-8, 0x1.9c828225df8c8p-11},
    },
    // LinkContention::kStoreForward, Topology::kMesh2D
    {
      {0x1.674b68b41e801p-9, 0x1.bc04fe6c8209p-8, 0x1.5b218ec60100ap-8, 0x1.838dbe9a04222p-10},
      {0x1.611ba3ca7503bp-9, 0x1.a3a08398a6546p-7, 0x1.7690801564151p-7, 0x1.68801c1a11f9ap-10},
      {0x1.611ba3ca7503bp-9, 0x1.a93293d102bc4p-7, 0x1.7c22904dc07d1p-7, 0x1.68801c1a11f9ap-10},
      {0x1.c20c7f6a436adp-9, 0x1.02daa5d363bfbp-7, 0x1.79979b92981d8p-8, 0x1.183b60285ec3cp-9},
      {0x1.d06a103f12649p-9, 0x1.eb9940ae45f91p-8, 0x1.59d2036d72ca3p-8, 0x1.238e7a81a65dap-9},
      {0x1.52be12f5a609fp-9, 0x1.9194119a5c371p-7, 0x1.68de0feb2f8e5p-7, 0x1.45b00d7965465p-10},
      {0x1.52be12f5a609fp-9, 0x1.91e7f4707fc4bp-7, 0x1.6931f2c1531bfp-7, 0x1.45b00d7965465p-10},
      {0x1.c20c7f6a436adp-9, 0x1.e5123df025977p-8, 0x1.5a79c919b9e57p-8, 0x1.1530e9acd763fp-9},
      {0x1.c20c7f6a436adp-9, 0x1.e46a7843de7c3p-8, 0x1.59d2036d72ca3p-8, 0x1.1530e9acd763fp-9},
      {0x1.52be12f5a609fp-9, 0x1.9194119a5c371p-7, 0x1.68de0feb2f8e6p-7, 0x1.45b00d7965465p-10},
      {0x1.52be12f5a609fp-9, 0x1.923bd746a3525p-7, 0x1.6985d59776a99p-7, 0x1.45b00d7965465p-10},
      {0x1.cf1a84e6842e1p-9, 0x1.ec2ce4649906fp-8, 0x1.5b0d6cd00cf34p-8, 0x1.223eef2918273p-9},
      {0x1.c20c7f6a436adp-9, 0x1.fd6ca7c907454p-8, 0x1.714ef7b4d7e37p-8, 0x1.183b60285ec3cp-9},
      {0x1.5fcc1871e6cd3p-9, 0x1.a49c2c1b10fd4p-7, 0x1.77e00b6df24bcp-7, 0x1.65e10568f58cap-10},
      {0x1.611ba3ca7503bp-9, 0x1.a3f4666ec9e2p-7, 0x1.76e462eb87a2dp-7, 0x1.68801c1a11f9ap-10},
      {0x1.674b68b41e801p-9, 0x1.bc04fe6c82092p-8, 0x1.5b218ec60100ap-8, 0x1.838dbe9a04222p-10},
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

TEST(AsyncPinned, HaloChargesLikeHandWrittenBatch) {
  // pinned_prog's halo phase on the 4 x 4 grid (16 x 16 owned cells per
  // rank, halo 1): the library's clocks and overlap ledger must equal this
  // hand-written program under every contention tier — per dim, send both
  // owned faces and charge their pack; compute the 14 x 14 interior; take
  // the ghost faces in one recv_batch (each receive, then its unpack);
  // compute the 60-cell boundary.
  constexpr int n = 64;
  auto run = [](LinkContention lc, auto prog) {
    Machine m(16, make_config(lc, 1));
    m.run(prog);
    return m.stats();
  };
  for (LinkContention lc : kTiers) {
    SCOPED_TRACE(std::string("tier=") + tier_name(lc));
    const MachineStats got = run(lc, [](Context& ctx) {
      using D2 = DistArray2<double>;
      const D2::Dists bb{DimDist::block_dist(), DimDist::block_dist()};
      D2 u(ctx, ProcView::grid2(4, 4), {n, n}, bb, {1, 1});
      D2 r(ctx, ProcView::grid2(4, 4), {n, n}, bb);
      doall_overlap(u.exchange_halo_begin(), u,
                    {Range{0, n - 1}, Range{0, n - 1}},
                    [&](int i, int j) { r(i, j) = u.at_halo({i - 1, j}); }, 6.0);
    });
    const MachineStats want = run(lc, [](Context& ctx) {
      const int row = ctx.rank() / 4;
      const int col = ctx.rank() % 4;
      const std::vector<double> face(16, 0.0);
      const double window_start = ctx.clock();
      std::vector<RecvLane> lanes;
      for (int d = 0; d < 2; ++d) {
        const int c = d == 0 ? row : col;
        const int step = d == 0 ? 4 : 1;
        double packed = 0;
        for (int side = 0; side < 2; ++side) {
          if ((side == 0 && c == 0) || (side == 1 && c == 3)) {
            continue;
          }
          const int peer = ctx.rank() + (side == 0 ? -step : step);
          ctx.send_span<double>(peer, kTagHaloBase + 4 * d + 1 - side,
                                std::span<const double>(face));
          packed += 16.0;
          lanes.push_back({peer, kTagHaloBase + 4 * d + side});
        }
        ctx.compute(packed);
      }
      ctx.compute(6.0 * 14 * 14);
      ctx.recv_batch(lanes, window_start,
                     [](std::size_t, Message) { return 16.0; });
      ctx.compute(6.0 * (16 * 16 - 14 * 14));
    });
    EXPECT_EQ(got.clocks, want.clocks);
    for (std::size_t k = 0; k < 16; ++k) {
      EXPECT_EQ(got.per_proc[k].overlap_wire_time,
                want.per_proc[k].overlap_wire_time);
      EXPECT_EQ(got.per_proc[k].overlap_hidden_time,
                want.per_proc[k].overlap_hidden_time);
    }
  }
}

}  // namespace
}  // namespace kali
