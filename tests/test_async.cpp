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
      {0x1.5d47d9b3651d3p-10, 0x1.44e003e136109p-8, 0x1.40505227eb00dp-8, 0x1.23ec6e52c3f2p-14},
      {0x1.6341eeb7d9204p-10, 0x1.6d0fcdd35d0a1p-8, 0x1.6aad1d041cc57p-8, 0x1.315867a02248cp-15},
      {0x1.65251dc6ba649p-10, 0x1.65907d9125572p-8, 0x1.62b500fe2cc17p-8, 0x1.6dbe497c4ad3p-15},
      {0x1.66d29cf0662f9p-10, 0x1.5b2844c2a7b02p-8, 0x1.565c2d278077cp-8, 0x1.3305e6c9ce148p-14},
      {0x1.6bdb1a6d69907p-10, 0x1.4e56a52843154p-8, 0x1.49cda96b9eb4ap-8, 0x1.223eef2918276p-14},
      {0x1.6956dbaee7ep-10, 0x1.5ffb125a7597ap-8, 0x1.5d98618b3553p-8, 0x1.315867a02249p-15},
      {0x1.6956dbaee7ep-10, 0x1.5ee136e71cda8p-8, 0x1.5c7e8617dc95ep-8, 0x1.315867a02249p-15},
      {0x1.6a12c3512308dp-10, 0x1.56e264e486273p-8, 0x1.52cb7eeef3687p-8, 0x1.05b97d64afadp-14},
      {0x1.6bdb1a6d69907p-10, 0x1.4ed626e8a2158p-8, 0x1.4a4d2b2bfdb4fp-8, 0x1.223eef2918278p-14},
      {0x1.6956dbaee7ep-10, 0x1.5f6e24a0c939p-8, 0x1.5d0b73d188f48p-8, 0x1.315867a02249p-15},
      {0x1.6956dbaee7ep-10, 0x1.5e54492d707bep-8, 0x1.5bf1985e30374p-8, 0x1.315867a02249p-15},
      {0x1.6a12c3512308dp-10, 0x1.542f2c3d75ac8p-8, 0x1.50184647e2edcp-8, 0x1.05b97d64afadp-14},
      {0x1.65e10568f58d6p-10, 0x1.5c0c7050caf3fp-8, 0x1.577cbe977fe43p-8, 0x1.23ec6e52c3f2p-14},
      {0x1.6341eeb7d9204p-10, 0x1.6cb1da023f759p-8, 0x1.6a4f2932ff31p-8, 0x1.315867a02249p-15},
      {0x1.6341eeb7d9204p-10, 0x1.6b9eb48b8d67ap-8, 0x1.693c03bc4d23p-8, 0x1.315867a02249p-15},
      {0x1.5b9a5a89b9524p-10, 0x1.4d7fe5936d3p-8, 0x1.495b93a48d12fp-8, 0x1.09147bb807428p-14},
    },
    // LinkContention::kNone, Topology::kMesh2D
    {
      {0x1.5fe6f064818a5p-10, 0x1.462f8f39c4472p-8, 0x1.40f817d4321c1p-8, 0x1.4dddd9648ac4p-14},
      {0x1.6341eeb7d9205p-10, 0x1.73f4c4629afffp-8, 0x1.719213935abb5p-8, 0x1.315867a0224ap-15},
      {0x1.6433863f49c27p-10, 0x1.6dfaaf5e26fd2p-8, 0x1.6b5b98ad0a9p-8, 0x1.4f8b588e368ep-15},
      {0x1.65251dc6ba649p-10, 0x1.703bd23e25d5ep-8, 0x1.6bdb1a6d69905p-8, 0x1.182df42f1165p-14},
      {0x1.6e7a311e85fd9p-10, 0x1.4a90470a808c8p-8, 0x1.455f85a19510ap-8, 0x1.4c305a3adef98p-14},
      {0x1.66b7c4fdcb72ep-10, 0x1.6a776d1ee74c1p-8, 0x1.68bc81fbee22cp-8, 0x1.baeb22f9294ap-16},
      {0x1.66b7c4fdcb72ep-10, 0x1.69cfa772a030cp-8, 0x1.6814bc4fa7078p-8, 0x1.baeb22f9294ap-16},
      {0x1.6e7a311e85fd9p-10, 0x1.499eaf830fea6p-8, 0x1.446dee1a246e8p-8, 0x1.4c305a3adef98p-14},
      {0x1.6e7a311e85fd9p-10, 0x1.4c3dc6342c578p-8, 0x1.470d04cb40dbap-8, 0x1.4c305a3adef98p-14},
      {0x1.66b7c4fdcb72ep-10, 0x1.69cfa772a030dp-8, 0x1.6814bc4fa7078p-8, 0x1.baeb22f9294ap-16},
      {0x1.66b7c4fdcb72ep-10, 0x1.6927e1c659158p-8, 0x1.676cf6a35fec4p-8, 0x1.baeb22f9294ap-16},
      {0x1.6e7a311e85fd9p-10, 0x1.47786495abce6p-8, 0x1.4247a32cc0528p-8, 0x1.4c305a3adef98p-14},
      {0x1.68801c1a11fa8p-10, 0x1.5e46dd34231d7p-8, 0x1.590f65ce90f26p-8, 0x1.4dddd9648ac4p-14},
      {0x1.60a2d806bcb33p-10, 0x1.7dc9597ac5992p-8, 0x1.7c0e6e57cc6fep-8, 0x1.baeb22f9294cp-16},
      {0x1.61946f8e2d555p-10, 0x1.783aa440bc89p-8, 0x1.7643533be7374p-8, 0x1.f75104d551d4p-16},
      {0x1.5e39713ad5bf6p-10, 0x1.4edcdce548c4ep-8, 0x1.4a10c54a218c8p-8, 0x1.3305e6c9ce148p-14},
    },
    // LinkContention::kPorts, Topology::kHypercube
    {
      {0x1.318e178557c32p-9, 0x1.4dc65c70435ecp-7, 0x1.2ac3f8e8b489cp-7, 0x1.18131c3c76a84p-10},
      {0x1.4785d08ef92c9p-9, 0x1.675c2fabbf35ep-7, 0x1.40b1a0f75bec7p-7, 0x1.355475a31a4b4p-10},
      {0x1.4785d08ef92c9p-9, 0x1.5b863893c544p-7, 0x1.34dba9df61faap-7, 0x1.355475a31a4b4p-10},
      {0x1.4a24e7401599bp-9, 0x1.5f2b08c24660dp-7, 0x1.371616c2ba244p-7, 0x1.40a78ffc61e54p-10},
      {0x1.4785d08ef92c9p-9, 0x1.63cb817332268p-7, 0x1.3d20f2becedd2p-7, 0x1.355475a31a4b4p-10},
      {0x1.48d55be787631p-9, 0x1.6381af98089fap-7, 0x1.3d45dbac63a09p-7, 0x1.31de9f5d27f89p-10},
      {0x1.48d55be787631p-9, 0x1.627bf61aa3effp-7, 0x1.3c40222efef0fp-7, 0x1.31de9f5d27f89p-10},
      {0x1.4b747298a3d03p-9, 0x1.6030c23fab107p-7, 0x1.388a8b08dd1e3p-7, 0x1.3d31b9b66f928p-10},
      {0x1.4a24e7401599bp-9, 0x1.627bf61aa3fp-7, 0x1.3b29a1b9f98b4p-7, 0x1.3a92a30553258p-10},
      {0x1.48d55be787631p-9, 0x1.6232243f7a691p-7, 0x1.3bf65053d56ap-7, 0x1.31de9f5d27f89p-10},
      {0x1.48d55be787631p-9, 0x1.5fdcdf698782ep-7, 0x1.39a10b7de283cp-7, 0x1.31de9f5d27f89p-10},
      {0x1.48d55be787633p-9, 0x1.5e39713ad5bebp-7, 0x1.373affb04ee7bp-7, 0x1.37f38c5436b88p-10},
      {0x1.48d55be787633p-9, 0x1.703bd23e25d55p-7, 0x1.487ac314bd265p-7, 0x1.3e08794b45784p-10},
      {0x1.4785d08ef92c9p-9, 0x1.6da6cc88036eep-7, 0x1.46fc3dd3a0259p-7, 0x1.355475a31a4b4p-10},
      {0x1.48d55be787631p-9, 0x1.6d9cbb8d09682p-7, 0x1.469e4a0282913p-7, 0x1.37f38c5436b84p-10},
      {0x1.318e178557c32p-9, 0x1.5eeb47e216e0cp-7, 0x1.3be8e45a880bap-7, 0x1.18131c3c76a84p-10},
    },
    // LinkContention::kPorts, Topology::kMesh2D
    {
      {0x1.32dda2dde5f9bp-9, 0x1.569f4906034f1p-7, 0x1.334902a850ec7p-7, 0x1.1ab232ed93156p-10},
      {0x1.4785d08ef92c9p-9, 0x1.69fb465cdba2fp-7, 0x1.4350b7a878599p-7, 0x1.355475a31a4b4p-10},
      {0x1.4785d08ef92c9p-9, 0x1.616c2ba245398p-7, 0x1.3ac19cede1f03p-7, 0x1.355475a31a4b4p-10},
      {0x1.4b747298a3d03p-9, 0x1.5c8bf21129f3cp-7, 0x1.34231d3b7a297p-7, 0x1.4346a6ad7e524p-10},
      {0x1.4b747298a3d03p-9, 0x1.67125dd095aefp-7, 0x1.3f6c2699c7bcap-7, 0x1.3d31b9b66f928p-10},
      {0x1.4785d08ef92c9p-9, 0x1.6f4d95b5088acp-7, 0x1.4965a49f87195p-7, 0x1.2f3f88ac0b8b9p-10},
      {0x1.463645366af61p-9, 0x1.656eefa1e3eacp-7, 0x1.3fdae1628607p-7, 0x1.2ca071faef1e9p-10},
      {0x1.4cc3fdf13206dp-9, 0x1.5ee136e71cdap-7, 0x1.36e71cda2b5ap-7, 0x1.3fd0d0678bffcp-10},
      {0x1.4a24e7401599bp-9, 0x1.64c729f59ccf8p-7, 0x1.3d74d594f26adp-7, 0x1.3a92a30553258p-10},
      {0x1.48d55be787633p-9, 0x1.6ff55b614fa61p-7, 0x1.49b98775aaa7p-7, 0x1.31de9f5d27f8dp-10},
      {0x1.4785d08ef92c9p-9, 0x1.6616b54e2b06p-7, 0x1.402ec438a9949p-7, 0x1.2f3f88ac0b8b9p-10},
      {0x1.4e138949c03d5p-9, 0x1.60d887ebf22bcp-7, 0x1.388a8b08dd1e3p-7, 0x1.426fe718a86ccp-10},
      {0x1.4a24e7401599bp-9, 0x1.72dae8ef42426p-7, 0x1.4ac5f6efb605cp-7, 0x1.40a78ffc61e54p-10},
      {0x1.4a24e7401599bp-9, 0x1.7b1620d3b51e2p-7, 0x1.53c3cc730ab97p-7, 0x1.3a92a30553258p-10},
      {0x1.48d55be787633p-9, 0x1.728706191eb4cp-7, 0x1.4b88948e97ddbp-7, 0x1.37f38c5436b88p-10},
      {0x1.32dda2dde5f9bp-9, 0x1.5ca014071e014p-7, 0x1.3949cda96b9e8p-7, 0x1.1ab232ed93156p-10},
    },
    // LinkContention::kStoreForward, Topology::kHypercube
    {
      {0x1.0b1feeb2d0a23p-9, 0x1.08d15fd9846afp-7, 0x1.ded50d0d2ebc6p-8, 0x1.966d952ed0cc8p-11},
      {0x1.3e73d915b06b7p-9, 0x1.094375a0960d3p-7, 0x1.c9bac99509e81p-8, 0x1.233086b088c8dp-10},
      {0x1.421f5f40d8377p-9, 0x1.025e7f115817p-7, 0x1.ba1b1960fa15dp-8, 0x1.2a879306d860cp-10},
      {0x1.5beae2618987dp-9, 0x1.1f3b2eaa37767p-7, 0x1.e5697bc49c7cap-8, 0x1.6433863f49c14p-10},
      {0x1.57c69072a96adp-9, 0x1.0cc001e32f0eep-7, 0x1.c40a866bbf6bdp-8, 0x1.55d5f56a7ac78p-10},
      {0x1.3ff91453741b5p-9, 0x1.00aa49eb059cep-7, 0x1.b94b0fc8cadf8p-8, 0x1.202610350168ep-10},
      {0x1.421f5f40d8377p-9, 0x1.008205ff1d81ep-7, 0x1.b7e7627a489b8p-8, 0x1.2472a60fc9a1p-10},
      {0x1.7bbde67ffc39bp-9, 0x1.0fcdd35d09c64p-7, 0x1.b82a7e58cb734p-8, 0x1.9dc4a18520654p-10},
      {0x1.76c2d4fc46373p-9, 0x1.20afa2f05a709p-7, 0x1.dc6ba64147c92p-8, 0x1.93ce7e7db4605p-10},
      {0x1.436eea99666dfp-9, 0x1.0ba9816e29a94p-7, 0x1.cd8e93ac19cfp-8, 0x1.2711bcc0e60e2p-10},
      {0x1.43a49a7e9be75p-9, 0x1.01b003686a4cap-7, 0x1.b980bfae0059p-8, 0x1.277d1c8b5100ep-10},
      {0x1.59161bcb37a17p-9, 0x1.12414b23eac0cp-7, 0x1.ce655340efb46p-8, 0x1.58750c1b9734ep-10},
      {0x1.5e46dd34231d5p-9, 0x1.3af3f1d4c412p-7, 0x1.0dd6825834747p-7, 0x1.68eb7be47cec4p-10},
      {0x1.40cfd3e84a00dp-9, 0x1.0a3f1e2300b6p-7, 0x1.ca841d30926f1p-8, 0x1.27e87c55bbf39p-10},
      {0x1.43a49a7e9be75p-9, 0x1.08d4bad7d7c2cp-7, 0x1.c644f34f17955p-8, 0x1.2d9209825fc08p-10},
      {0x1.10002843ebe82p-9, 0x1.06614310f6c81p-7, 0x1.d784b6b385d3cp-8, 0x1.a9ee7b733de43p-11},
    },
    // LinkContention::kStoreForward, Topology::kMesh2D
    {
      {0x1.674b68b41e801p-9, 0x1.c1d019886741ep-8, 0x1.60eca9e1e6396p-8, 0x1.838dbe9a04222p-10},
      {0x1.611ba3ca7503bp-9, 0x1.a917bbde67ffap-7, 0x1.7c07b85b25c07p-7, 0x1.68801c1a11f9ap-10},
      {0x1.5fcc1871e6cd3p-9, 0x1.9f4326c63d667p-7, 0x1.728706191eb4dp-7, 0x1.65e10568f58cap-10},
      {0x1.c20c7f6a436adp-9, 0x1.f76bdcc7ec931p-8, 0x1.6b4e2cb3bd311p-8, 0x1.183b60285ec3cp-9},
      {0x1.cf1a84e6842e1p-9, 0x1.ed46bfd7f1c41p-8, 0x1.5c27484365b06p-8, 0x1.223eef2918273p-9},
      {0x1.52be12f5a609fp-9, 0x1.920627616dd8fp-7, 0x1.695025b241304p-7, 0x1.45b00d7965465p-10},
      {0x1.52be12f5a609fp-9, 0x1.915e61b526bdcp-7, 0x1.68a86005fa14fp-7, 0x1.45b00d7965465p-10},
      {0x1.c20c7f6a436adp-9, 0x1.e2e53d061acc3p-8, 0x1.584cc82faf1a5p-8, 0x1.1530e9acd763ep-9},
      {0x1.c20c7f6a436adp-9, 0x1.e7b154a142049p-8, 0x1.5d18dfcad6529p-8, 0x1.1530e9acd763fp-9},
      {0x1.52be12f5a609fp-9, 0x1.920627616dd9p-7, 0x1.695025b241302p-7, 0x1.45b00d7965465p-10},
      {0x1.52be12f5a609fp-9, 0x1.9146e4c0df589p-7, 0x1.6890e311b2afdp-7, 0x1.45b00d7965466p-10},
      {0x1.d1b99b97a09b3p-9, 0x1.eabbcb1cc9646p-8, 0x1.584cc82faf1a5p-8, 0x1.24de05da34944p-9},
      {0x1.c20c7f6a436adp-9, 0x1.041cc532a497ep-7, 0x1.7c1bda5119cdfp-8, 0x1.183b60285ec3cp-9},
      {0x1.626b2f23033a5p-9, 0x1.a81c135bfd56ap-7, 0x1.7ab82d029789cp-7, 0x1.6b1f32cb2e66ep-10},
      {0x1.5fcc1871e6cd3p-9, 0x1.a48154287640ap-7, 0x1.77c5337b578f1p-7, 0x1.65e10568f58cap-10},
      {0x1.65fbdd5b90498p-9, 0x1.ba00416e5f58ep-8, 0x1.59c49774256bbp-8, 0x1.80eea7e8e7b5p-10},
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
  // hand-written program under every contention tier — send the owned
  // faces in ascending direction-code order and charge their pack once;
  // compute the 14 x 14 interior; take the ghost faces in one recv_batch
  // (each receive, then its unpack); compute the 60-cell boundary.
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
      // The face directions in ascending direction code: a direction's
      // owned face goes to the rank one step against it, and its ghost
      // face comes from the rank one step along it.
      constexpr int kDirs[4][2] = {{0, -1}, {-1, 0}, {1, 0}, {0, 1}};
      auto rank_at = [](int r, int c) {
        return r < 0 || r > 3 || c < 0 || c > 3 ? -1 : 4 * r + c;
      };
      const double window_start = ctx.clock();
      double packed = 0;
      for (const auto& dir : kDirs) {
        const int peer = rank_at(row - dir[0], col - dir[1]);
        if (peer >= 0) {
          ctx.send_span<double>(peer, kTagHalo, std::span<const double>(face));
          packed += 16.0;
        }
      }
      ctx.compute(packed);
      std::vector<RecvLane> lanes;
      for (const auto& dir : kDirs) {
        const int peer = rank_at(row + dir[0], col + dir[1]);
        if (peer >= 0) {
          lanes.push_back({peer, kTagHalo});
        }
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
