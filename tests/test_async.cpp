// Differential tests for the nonblocking layer (Context::isend/irecv +
// CommHandle) and the split-phase runtime exchanges built on it
// (exchange_halo_begin, redistribute_begin, copy_strided_dim_begin,
// copy_strided_dim_halo_begin).  The contract under test is the one
// docs/machine-model.md states: overlapping communication with compute
// changes *when* wire time is paid, never *what* is computed or sent — so
// every split-phase form must produce byte-identical results, identical
// per-tag message ledgers, and (being built from the same deterministic
// completion algebra) traces that are bit-identical across host worker
// counts and all three link-contention tiers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>  // hardware_concurrency: host-side harness knob only
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

TEST(AsyncHandles, IsendHandleIsBornComplete) {
  Machine m(2, make_config(LinkContention::kNone, 1));
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      CommHandle h = ctx.isend<int>(1, /*tag=*/9, 42);
      EXPECT_TRUE(h.done());
      h.wait();  // no-op on a complete handle
    } else {
      EXPECT_EQ(ctx.recv<int>(0, 9), 42);
    }
  });
}

TEST(AsyncHandles, DefaultHandleIsComplete) {
  Machine m(1, make_config(LinkContention::kNone, 1));
  m.run([](Context& ctx) {
    CommHandle h;
    EXPECT_TRUE(h.done());
    ctx.wait(h);  // no-op, no throw
  });
}

TEST(AsyncHandles, IrecvWaitRoundtrip) {
  Machine m(2, make_config(LinkContention::kNone, 1));
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<double>(1, 11, 2.5);
    } else {
      double x = 0.0;
      CommHandle h = ctx.irecv<double>(0, 11, x);
      ctx.wait(h);
      EXPECT_TRUE(h.done());
      EXPECT_EQ(x, 2.5);
    }
  });
}

TEST(AsyncHandles, QueuedMatchCompletesOnlyAtAWaitPoint) {
  // There is no progress engine: rank 1's matching message is provably
  // queued (rank 0 sent it before the tag-15 message rank 1 has received),
  // yet the operation stays pending until the wait completes it.
  Machine m(2, make_config(LinkContention::kNone, 1));
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, 14, 7);
      ctx.send<int>(1, 15, 0);
    } else {
      int got = 0;
      CommHandle h = ctx.irecv<int>(0, 14, got);
      (void)ctx.recv<int>(0, 15);
      EXPECT_FALSE(h.done());
      EXPECT_EQ(got, 0);
      ctx.wait(h);
      EXPECT_TRUE(h.done());
      EXPECT_EQ(got, 7);
    }
  });
}

TEST(AsyncHandles, WaitAllCompletesOutOfOrderPosts) {
  // Two tags posted in the opposite order they were sent; wait_all takes
  // the union and the deterministic completion algebra sorts it out.
  Machine m(2, make_config(LinkContention::kNone, 1));
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send<int>(1, 21, 100);
      ctx.send<int>(1, 22, 200);
    } else {
      int a = 0, b = 0;
      std::vector<CommHandle> hs;
      hs.push_back(ctx.irecv<int>(0, 22, b));
      hs.push_back(ctx.irecv<int>(0, 21, a));
      ctx.wait_all(std::span<CommHandle>(hs));
      EXPECT_EQ(a, 100);
      EXPECT_EQ(b, 200);
    }
  });
}

TEST(AsyncHandles, LaneFifoPairsPostsWithMatchesInOrder) {
  // Three posts on one (src, tag) lane pair with the three sends in FIFO
  // order; waiting the *last* handle completes its lane predecessors too.
  Machine m(2, make_config(LinkContention::kNone, 1));
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      for (int k = 0; k < 3; ++k) {
        ctx.send<int>(1, 31, 10 + k);
      }
    } else {
      int v0 = 0, v1 = 0, v2 = 0;
      CommHandle h0 = ctx.irecv<int>(0, 31, v0);
      CommHandle h1 = ctx.irecv<int>(0, 31, v1);
      CommHandle h2 = ctx.irecv<int>(0, 31, v2);
      ctx.wait(h2);
      EXPECT_TRUE(h0.done());
      EXPECT_TRUE(h1.done());
      EXPECT_EQ(v0, 10);
      EXPECT_EQ(v1, 11);
      EXPECT_EQ(v2, 12);
    }
  });
}

TEST(AsyncHandles, OverlapLedgerSeesHiddenWireTime) {
  // A receiver that computes through the in-flight window records both the
  // window and the hidden portion; an idle receiver records window only.
  Machine m(2, make_config(LinkContention::kNone, 1));
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      std::vector<double> payload(256, 1.0);
      ctx.send_span<double>(1, 41, payload);
    } else {
      std::vector<double> buf(256);
      CommHandle h = ctx.irecv_into<double>(0, 41, buf);
      ctx.compute(1e6);  // plenty of work: the whole window is hidden
      ctx.wait(h);
    }
  });
  const MachineStats s = m.stats();
  EXPECT_GT(s.overlap_wire_time(), 0.0);
  EXPECT_GT(s.overlap_hidden_time(), 0.0);
  EXPECT_EQ(s.overlap_ratio(), 1.0);  // compute covered the whole window
}

}  // namespace
}  // namespace kali
