#include "runtime/redistribute.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "machine/context.hpp"
#include "machine/event_log.hpp"
#include "oracles/line_pass_reference.hpp"
#include "oracles/redistribute_reference.hpp"
#include "random_view.hpp"
#include "runtime/io.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

double tag2(int i, int j) { return 100.0 * i + j; }

TEST(Redistribute, BlockToCyclic1D) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> src(ctx, pv, {16}, {DimDist::block_dist()});
    DistArray1<double> dst(ctx, pv, {16}, {DimDist::cyclic()});
    src.fill([](std::array<int, 1> g) { return 5.0 * g[0]; });
    redistribute(ctx, src, dst);
    dst.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_DOUBLE_EQ(dst.at(g), 5.0 * g[0]);
    });
  });
}

TEST(Redistribute, TransposeDistribution2D) {
  // (block, *) -> (*, block): the transpose communication of a distributed
  // 2-D FFT or of switching ADI sweep direction.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray2<double> rows(ctx, pv, {8, 8},
                            {DimDist::block_dist(), DimDist::star()});
    DistArray2<double> cols(ctx, pv, {8, 8},
                            {DimDist::star(), DimDist::block_dist()});
    rows.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    redistribute(ctx, rows, cols);
    cols.for_each_owned([&](std::array<int, 2> g) {
      EXPECT_DOUBLE_EQ(cols.at(g), tag2(g[0], g[1]));
    });
  });
}

TEST(Redistribute, DifferentGridShapes) {
  Machine m(4);
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid2(2, 2), {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    DistArray2<double> b(ctx, ProcView::grid2(4, 1), {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    redistribute(ctx, a, b);
    b.for_each_owned([&](std::array<int, 2> g) {
      EXPECT_DOUBLE_EQ(b.at(g), tag2(g[0], g[1]));
    });
  });
}

TEST(Redistribute, RoundTripPreservesContents) {
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {13}, {DimDist::block_dist()});
    DistArray1<double> b(ctx, pv, {13}, {DimDist::block_cyclic(2)});
    DistArray1<double> c(ctx, pv, {13}, {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 7.0 * g[0] + 1.0; });
    redistribute(ctx, a, b);
    redistribute(ctx, b, c);
    c.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_DOUBLE_EQ(c.at(g), 7.0 * g[0] + 1.0);
    });
  });
}

TEST(Redistribute, ReplicatesIntoStarDims) {
  // dst (*, block): every processor must receive the rows it replicates.
  Machine m(2);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<double> src(ctx, pv, {4, 4},
                           {DimDist::block_dist(), DimDist::star()});
    DistArray2<double> dst(ctx, pv, {4, 4},
                           {DimDist::star(), DimDist::block_dist()});
    src.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    redistribute(ctx, src, dst);
    for (int i = 0; i < 4; ++i) {
      for (int j = dst.own_lower(1); j <= dst.own_upper(1); ++j) {
        EXPECT_DOUBLE_EQ(dst(i, j), tag2(i, j));
      }
    }
  });
}

TEST(Redistribute, CyclicBlockCyclicRoundTrip) {
  // General (owner-binning) path in both directions, odd extent so counts
  // differ across ranks.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {19}, {DimDist::cyclic()});
    DistArray1<double> b(ctx, pv, {19}, {DimDist::block_cyclic(3)});
    DistArray1<double> c(ctx, pv, {19}, {DimDist::cyclic()});
    a.fill([](std::array<int, 1> g) { return 3.0 * g[0] - 1.0; });
    redistribute(ctx, a, b);
    b.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_DOUBLE_EQ(b.at(g), 3.0 * g[0] - 1.0);
    });
    redistribute(ctx, b, c);
    c.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_DOUBLE_EQ(c.at(g), 3.0 * g[0] - 1.0);
    });
  });
}

TEST(Redistribute, StarFanOutFromBlockGrid) {
  // (block, block) on a 2x2 grid -> (block, *) on a 1-D view: every dst
  // rank's replicated row span is assembled from two source quadrants.
  Machine m(4);
  m.run([](Context& ctx) {
    DistArray2<double> src(ctx, ProcView::grid2(2, 2), {8, 8},
                           {DimDist::block_dist(), DimDist::block_dist()});
    DistArray2<double> dst(ctx, ProcView::grid1(4), {8, 8},
                           {DimDist::block_dist(), DimDist::star()});
    src.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    redistribute(ctx, src, dst);
    for (int i = dst.own_lower(0); i <= dst.own_upper(0); ++i) {
      for (int j = 0; j < 8; ++j) {
        EXPECT_DOUBLE_EQ(dst(i, j), tag2(i, j));
      }
    }
  });
}

TEST(Redistribute, DisjointSrcDstViews) {
  // Producer/consumer hand-off: src lives on ranks {0, 1}, dst on {2, 3}.
  // Exercises both the box path and the general path across disjoint views.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView spv = ProcView::grid1(2, /*base=*/0);
    ProcView dpv = ProcView::grid1(2, /*base=*/2);
    {
      DistArray1<double> a(ctx, spv, {10}, {DimDist::block_dist()});
      DistArray1<double> b(ctx, dpv, {10}, {DimDist::block_dist()});
      a.fill([](std::array<int, 1> g) { return 2.0 * g[0]; });
      redistribute(ctx, a, b);
      b.for_each_owned([&](std::array<int, 1> g) {
        EXPECT_DOUBLE_EQ(b.at(g), 2.0 * g[0]);
      });
    }
    {
      DistArray1<double> a(ctx, spv, {10}, {DimDist::block_dist()});
      DistArray1<double> b(ctx, dpv, {10}, {DimDist::cyclic()});
      a.fill([](std::array<int, 1> g) { return 2.0 * g[0] + 1.0; });
      redistribute(ctx, a, b);
      b.for_each_owned([&](std::array<int, 1> g) {
        EXPECT_DOUBLE_EQ(b.at(g), 2.0 * g[0] + 1.0);
      });
    }
  });
}

TEST(Redistribute, OvershootRanksOwnNothing) {
  // extent < nprocs: with block ceil-division, rank 3 owns zero elements on
  // both sides; it must neither send nor be expected to send.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {3}, {DimDist::block_dist()});
    DistArray1<double> b(ctx, pv, {3}, {DimDist::cyclic()});
    DistArray1<double> c(ctx, pv, {3}, {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 9.0 * g[0]; });
    redistribute(ctx, a, b);
    redistribute(ctx, b, c);
    c.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_DOUBLE_EQ(c.at(g), 9.0 * g[0]);
    });
  });
}

TEST(Redistribute, BoxPathSendsOnlyIntersectingPairs) {
  // Identity redistribution between identical (block, block) layouts: the
  // only intersecting pair per rank is itself, and self-overlaps are local
  // copies — zero messages, where the reference path still floods all 12
  // non-self pairs (its own self round-trips are also eliminated).
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    DistArray2<double> b(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    redistribute(ctx, a, b);
    b.for_each_owned([&](std::array<int, 2> g) {
      EXPECT_DOUBLE_EQ(b.at(g), tag2(g[0], g[1]));
    });
  });
  EXPECT_EQ(m.stats().totals().msgs_sent, 0u);

  Machine ref(4);
  ref.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    DistArray2<double> b(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    oracles::redistribute_reference(ctx, a, b);
    b.for_each_owned([&](std::array<int, 2> g) {
      EXPECT_DOUBLE_EQ(b.at(g), tag2(g[0], g[1]));
    });
  });
  EXPECT_EQ(ref.stats().totals().msgs_sent, 12u);
}

TEST(Redistribute, NoSelfMessagesOnAnyPath) {
  // The headline bugfix: no path may push a rank's self-overlap through
  // the mailbox — box, general (binning), and reference alike.
  Machine m(4);
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    {  // box path, transpose: self slab on the diagonal
      DistArray2<double> rows(ctx, pv, {8, 8},
                              {DimDist::block_dist(), DimDist::star()});
      DistArray2<double> cols(ctx, pv, {8, 8},
                              {DimDist::star(), DimDist::block_dist()});
      rows.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      redistribute(ctx, rows, cols);
    }
    {  // general path: every rank keeps some elements
      DistArray1<double> a(ctx, pv, {32}, {DimDist::block_dist()});
      DistArray1<double> b(ctx, pv, {32}, {DimDist::block_cyclic(2)});
      a.fill([](std::array<int, 1> g) { return 1.0 * g[0]; });
      redistribute(ctx, a, b);
      DistArray1<double> c(ctx, pv, {32}, {DimDist::cyclic()});
      oracles::redistribute_reference(ctx, b, c);
    }
  });
  EXPECT_EQ(m.stats().self_msgs(kTagRedistData), 0u);
  EXPECT_EQ(m.stats().self_msgs_total(), 0u);
}

TEST(Redistribute, ScheduledAndPeerOrderProduceIdenticalContents) {
  // The round schedule only permutes issue order; array contents must be
  // exactly what naive peer order produces, on both protocol paths.
  struct Case {
    std::string name;
    DimDist sd, dd;
  };
  const std::vector<Case> cases = {
      {"box", DimDist::block_dist(), DimDist::block_dist()},
      {"general", DimDist::cyclic(), DimDist::block_cyclic(3)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    for (int p : {3, 4, 5, 8}) {
      SCOPED_TRACE("p=" + std::to_string(p));
      Machine m(p);
      m.run([&](Context& ctx) {
        ProcView pv = ProcView::grid1(p);
        DistArray1<double> src(ctx, pv, {29}, {c.sd});
        DistArray1<double> sched(ctx, pv, {29}, {c.dd});
        DistArray1<double> naive(ctx, pv, {29}, {c.dd});
        src.fill([](std::array<int, 1> g) { return 0.25 * g[0] - 2.0; });
        redistribute(ctx, src, sched, IssueOrder::kRoundSchedule);
        redistribute(ctx, src, naive, IssueOrder::kPeerOrder);
        sched.for_each_owned([&](std::array<int, 1> g) {
          EXPECT_DOUBLE_EQ(sched.at(g), naive.at(g));
          EXPECT_DOUBLE_EQ(sched.at(g), 0.25 * g[0] - 2.0);
        });
      });
    }
  }
}

TEST(Redistribute, ContentionOnlyChangesClocks) {
  // Same transpose with link contention off and on: identical contents,
  // message counts, and wire bytes — only clocks (and the link-wait
  // counters) move, and never backwards.
  auto run_transpose = [](bool contention, IssueOrder order) {
    MachineConfig cfg;
    cfg.link_contention =
        contention ? LinkContention::kPorts : LinkContention::kNone;
    Machine m(8, cfg);
    std::vector<double> gathered;
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(8);
      DistArray2<double> rows(ctx, pv, {16, 16},
                              {DimDist::block_dist(), DimDist::star()});
      DistArray2<double> cols(ctx, pv, {16, 16},
                              {DimDist::star(), DimDist::block_dist()});
      rows.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      redistribute(ctx, rows, cols, order);
      if (ctx.rank() == 0) {
        for (int i = 0; i < 16; ++i) {
          for (int j = cols.own_lower(1); j <= cols.own_upper(1); ++j) {
            gathered.push_back(cols(i, j));
          }
        }
      }
    });
    return std::make_tuple(gathered, m.stats());
  };

  const auto [vals_off, st_off] = run_transpose(false, IssueOrder::kRoundSchedule);
  const auto [vals_on, st_on] = run_transpose(true, IssueOrder::kRoundSchedule);
  EXPECT_EQ(vals_off, vals_on);  // bit-identical results
  EXPECT_EQ(st_off.totals().msgs_sent, st_on.totals().msgs_sent);
  EXPECT_EQ(st_off.totals().bytes_sent, st_on.totals().bytes_sent);
  EXPECT_DOUBLE_EQ(st_off.link_wait_time(), 0.0);
  EXPECT_EQ(st_off.contended_msgs(), 0u);
  EXPECT_GE(st_on.max_clock(), st_off.max_clock());

  // Under contention the round schedule must not lose to naive issue
  // order on the modeled clock.
  const auto [vals_naive, st_naive] = run_transpose(true, IssueOrder::kPeerOrder);
  EXPECT_EQ(vals_naive, vals_on);
  EXPECT_LE(st_on.max_clock(), st_naive.max_clock());
  EXPECT_GT(st_naive.contended_msgs(), 0u);
}

TEST(Redistribute, PropertyMatchesReferenceAcrossDistributions1D) {
  // Differential test: for every (src kind, dst kind) pair, the analytic
  // protocol must reproduce the reference all-pairs path element for
  // element (and both must equal the fill).
  const std::vector<std::pair<std::string, DimDist>> kinds = {
      {"block", DimDist::block_dist()},
      {"cyclic", DimDist::cyclic()},
      {"bc2", DimDist::block_cyclic(2)},
      {"bc3", DimDist::block_cyclic(3)},
  };
  for (const auto& [sname, sk] : kinds) {
    for (const auto& [dname, dk] : kinds) {
      SCOPED_TRACE(sname + " -> " + dname);
      Machine m(4);
      m.run([sk = sk, dk = dk](Context& ctx) {
        ProcView pv = ProcView::grid1(4);
        DistArray1<double> src(ctx, pv, {23}, {sk});
        DistArray1<double> fast(ctx, pv, {23}, {dk});
        DistArray1<double> ref(ctx, pv, {23}, {dk});
        src.fill([](std::array<int, 1> g) { return 0.5 * g[0] * g[0] - 3.0; });
        redistribute(ctx, src, fast);
        oracles::redistribute_reference(ctx, src, ref);
        fast.for_each_owned([&](std::array<int, 1> g) {
          EXPECT_DOUBLE_EQ(fast.at(g), ref.at(g));
          EXPECT_DOUBLE_EQ(fast.at(g), 0.5 * g[0] * g[0] - 3.0);
        });
      });
    }
  }
}

TEST(Redistribute, PropertyBoxPathMatchesReference2D) {
  // Differential test over box-eligible 2-D layouts, including transposes
  // and grid reshapes; every combination takes the slab fast path.
  struct Layout {
    std::string name;
    ProcView pv;
    DistArray2<double>::Dists dists;
  };
  const std::vector<Layout> layouts = {
      {"rows", ProcView::grid1(4), {DimDist::block_dist(), DimDist::star()}},
      {"cols", ProcView::grid1(4), {DimDist::star(), DimDist::block_dist()}},
      {"grid22", ProcView::grid2(2, 2),
       {DimDist::block_dist(), DimDist::block_dist()}},
      {"grid41", ProcView::grid2(4, 1),
       {DimDist::block_dist(), DimDist::block_dist()}},
  };
  for (const auto& s : layouts) {
    for (const auto& d : layouts) {
      SCOPED_TRACE(s.name + " -> " + d.name);
      Machine m(4);
      m.run([&](Context& ctx) {
        DistArray2<double> src(ctx, s.pv, {9, 7}, s.dists);
        DistArray2<double> fast(ctx, d.pv, {9, 7}, d.dists);
        DistArray2<double> ref(ctx, d.pv, {9, 7}, d.dists);
        src.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
        redistribute(ctx, src, fast);
        oracles::redistribute_reference(ctx, src, ref);
        fast.for_each_owned([&](std::array<int, 2> g) {
          EXPECT_DOUBLE_EQ(fast.at(g), ref.at(g));
          EXPECT_DOUBLE_EQ(fast.at(g), tag2(g[0], g[1]));
        });
      });
    }
  }
}

TEST(Redistribute, StoreForwardDeterministicAcrossRuns) {
  // The hard requirement of the store-and-forward model: with 16 threads
  // racing, repeated runs of the same contended redistribution must
  // produce bit-identical per-rank clocks and wait counters — contention
  // resolution never depends on host scheduling.
  auto run_once = [] {
    MachineConfig cfg;
    cfg.topology = Topology::kMesh2D;
    cfg.link_contention = LinkContention::kStoreForward;
    Machine m(16, cfg);
    m.run([](Context& ctx) {
      ProcView pv = ProcView::grid1(16);
      DistArray2<double> rows(ctx, pv, {32, 32},
                              {DimDist::block_dist(), DimDist::star()});
      DistArray2<double> cols(ctx, pv, {32, 32},
                              {DimDist::star(), DimDist::block_dist()});
      rows.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      redistribute(ctx, rows, cols);
    });
    const MachineStats st = m.stats();
    std::vector<double> per_rank = st.clocks;
    for (const auto& c : st.per_proc) {
      per_rank.push_back(c.link_wait_time);
      per_rank.push_back(c.edge_wait_time);
      per_rank.push_back(static_cast<double>(c.contended_msgs));
    }
    per_rank.push_back(static_cast<double>(st.max_edge_load()));
    return per_rank;
  };
  const std::vector<double> first = run_once();
  // The run is genuinely contended, so the equality below exercises the
  // queueing path, not a trivial all-zeros comparison.
  double waits = 0.0;
  for (std::size_t k = 16; k + 1 < first.size(); k += 3) {
    waits += first[k + 1];
  }
  EXPECT_GT(waits, 0.0);
  for (int rep = 0; rep < 4; ++rep) {
    EXPECT_EQ(run_once(), first) << "rep " << rep;  // bit-identical
  }
}

/// Per-rank clocks after running `prog` on 2 ranks.
template <class Prog>
std::vector<double> clocks_after(Prog&& prog) {
  Machine m(2);
  std::vector<double> clocks(2);
  m.run([&](Context& ctx) {
    prog(ctx);
    clocks[static_cast<std::size_t>(ctx.rank())] = ctx.clock();
  });
  return clocks;
}

TEST(Redistribute, ChargesSelfCopyInsideTheWireWindow) {
  // (block, *) -> (*, block) on 2 ranks, 4x4: each rank keeps a 2x2
  // self-overlap and trades a 2x2 slab with its peer.  The box path sends,
  // charges the pack, charges the self copy while the slab is on the wire,
  // then takes the receive in one batch and charges its unpack; the
  // modeled clocks pin that order exactly.
  const auto got = clocks_after([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<double> rows(ctx, pv, {4, 4},
                            {DimDist::block_dist(), DimDist::star()});
    DistArray2<double> cols(ctx, pv, {4, 4},
                            {DimDist::star(), DimDist::block_dist()});
    rows.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    redistribute(ctx, rows, cols);
  });
  const auto want = clocks_after([](Context& ctx) {
    const int peer = 1 - ctx.rank();
    const std::vector<double> slab(4, 1.0);
    const double window_start = ctx.clock();
    ctx.send_span<double>(peer, kTagRedistData, std::span<const double>(slab));
    ctx.compute(4.0);  // pack
    ctx.compute(4.0);  // self copy
    const RecvLane lane{peer, kTagRedistData};
    ctx.recv_batch(std::span<const RecvLane>(&lane, 1), window_start,
                   [](std::size_t, Message) { return 4.0; });  // unpack
  });
  EXPECT_EQ(got, want);
}

TEST(Redistribute, GeneralPathChargesLikeHandWrittenProgram) {
  // cyclic -> block_cyclic(3) on 8 ranks under port contention takes the
  // cyclic binner.  Its clocks and per-tag ledgers must equal this
  // hand-written program: bin by destination owner, send the non-empty
  // bins in round order, charge the pack, copy and charge the self-overlap
  // inside the wire window, then take the bins in one recv_batch (each
  // receive, then its unpack).
  const int p = 8;
  const int n = 61;
  auto run = [&](auto prog) {
    MachineConfig cfg;
    cfg.link_contention = LinkContention::kPorts;
    Machine m(p, cfg);
    m.run(prog);
    return m.stats();
  };
  const MachineStats got = run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    DistArray1<double> src(ctx, pv, {n}, {DimDist::cyclic()});
    DistArray1<double> dst(ctx, pv, {n}, {DimDist::block_cyclic(3)});
    src.fill([](std::array<int, 1> g) { return 0.5 * g[0]; });
    redistribute(ctx, src, dst);
    dst.for_each_owned([&](std::array<int, 1> g) {
      EXPECT_DOUBLE_EQ(dst.at(g), 0.5 * g[0]);
    });
  });
  const MachineStats want = run([&](Context& ctx) {
    const int me = ctx.rank();
    std::vector<std::vector<double>> bins(p);  // values to send, by dst rank
    std::vector<std::size_t> expect(p);        // values to receive, by src
    for (int g = 0; g < n; ++g) {
      const auto src_owner = static_cast<std::size_t>(g % p);
      const auto dst_owner = static_cast<std::size_t>((g / 3) % p);
      if (src_owner == static_cast<std::size_t>(me)) {
        bins[dst_owner].push_back(0.5 * g);
      }
      if (dst_owner == static_cast<std::size_t>(me)) {
        ++expect[src_owner];
      }
    }
    const std::vector<int> peers = round_order(CommSchedule(p), me);
    const double window_start = ctx.clock();
    double packed = 0;
    for (int q : peers) {
      const auto& bin = bins[static_cast<std::size_t>(q)];
      if (!bin.empty()) {
        ctx.send_span<double>(q, kTagRedistData, std::span<const double>(bin));
        packed += static_cast<double>(bin.size());
      }
    }
    ctx.compute(packed);
    ctx.compute(static_cast<double>(expect[static_cast<std::size_t>(me)]));
    std::vector<RecvLane> lanes;
    for (int q : peers) {
      if (expect[static_cast<std::size_t>(q)] > 0) {
        lanes.push_back({q, kTagRedistData});
      }
    }
    ctx.recv_batch(lanes, window_start, [](std::size_t, Message m) {
      return static_cast<double>(m.size_bytes() / sizeof(double));
    });
  });
  EXPECT_EQ(got.clocks, want.clocks);
  for (std::size_t r = 0; r < got.per_proc.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(got.per_proc[r].sent_by_tag, want.per_proc[r].sent_by_tag);
    EXPECT_EQ(got.per_proc[r].recv_by_tag, want.per_proc[r].recv_by_tag);
    EXPECT_EQ(got.per_proc[r].bytes_sent, want.per_proc[r].bytes_sent);
  }
  EXPECT_GT(got.sent_msgs(kTagRedistData), 0u);
}

TEST(Redistribute, ExtentMismatchThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    DistArray1<double> b(ctx, pv, {9}, {DimDist::block_dist()});
    redistribute(ctx, a, b);
  }),
               Error);
}

// ---- redistribute_lines: a line pass pipelined into its redistribution ----

/// One layout pair of a pipelined line pass.  src holds whole lines indexed
/// along line_dim on a 1-D view; dst is the other 1-D layout (a transpose,
/// as in fft2) or (block, block) on a 2-D grid of the same ranks (ADI's
/// line-view to grid-view switch).
struct LineCase {
  const char* name;
  int nx;
  int ny;
  int line_dim;
  bool grid_dst;
};

struct LineRun {
  std::vector<double> src_vals;  ///< row-major global values after the pass
  std::vector<double> dst_vals;
  MachineStats stats;
  std::uint64_t planned_msgs = 0;  ///< slices x peers with a non-empty slab
};

LineRun run_line_pass(int p, const LineCase& lc, LinkContention tier,
                      bool pipelined) {
  MachineConfig cfg;
  cfg.topology = Topology::kMesh2D;
  cfg.link_contention = tier;
  Machine m(p, cfg);
  const auto cells = static_cast<std::size_t>(lc.nx * lc.ny);
  LineRun out{std::vector<double>(cells, -1.0),
              std::vector<double>(cells, -1.0), {}, 0};
  std::vector<std::uint64_t> planned(static_cast<std::size_t>(p));
  int gx = 1;  // near-square p = gx * gy
  for (int d = 1; d * d <= p; ++d) {
    gx = p % d == 0 ? d : gx;
  }
  m.run([&](Context& ctx) {
    using D2 = DistArray2<double>;
    const DimDist blk = DimDist::block_dist();
    const DimDist star = DimDist::star();
    const ProcView line = ProcView::grid1(p);
    const D2::Dists rows{blk, star};
    const D2::Dists cols{star, blk};
    D2 src(ctx, line, {lc.nx, lc.ny}, lc.line_dim == 0 ? rows : cols);
    D2 dst = lc.grid_dst
                 ? D2(ctx, ProcView::grid2(gx, p / gx), {lc.nx, lc.ny},
                      {blk, blk})
                 : D2(ctx, line, {lc.nx, lc.ny}, lc.line_dim == 0 ? cols : rows);
    src.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    // An order-sensitive recurrence along each line: a line computed from
    // the wrong data, or an element landing in the wrong place, shows.
    auto pass = [&](int r) {
      const Strided<double> s = src.fix(lc.line_dim, r).local_strided();
      double carry = r;
      for (int q = 0; q < s.n; ++q) {
        carry = 0.5 * carry + s[q];
        s[q] = carry;
      }
      ctx.compute(s.n);
    };
    if (pipelined) {
      redistribute_lines(ctx, src, dst, lc.line_dim, pass);
    } else {
      oracles::line_pass_then_redistribute(ctx, src, dst, lc.line_dim, pass);
    }
    // The slices' peers by copy_strided_dim's own planner, an independent
    // derivation of what redistribute_lines may send.
    const int nlines = src.extent(lc.line_dim);
    for (int k = 0; k < kLineSlices; ++k) {
      const int count = std::max(0, (nlines - k + kLineSlices - 1) / kLineSlices);
      const detail::BoxCopy c{"slice", kTagRedistData, lc.line_dim,
                              kLineSlices, k, kLineSlices, k, count, false};
      planned[static_cast<std::size_t>(ctx.rank())] +=
          detail::plan_exchange(ctx, src, dst, c).out.size();
    }
    auto record = [&](const D2& a, std::vector<double>& vals) {
      if (a.participating()) {
        a.for_each_owned([&](std::array<int, 2> g) {
          vals[static_cast<std::size_t>(g[0] * lc.ny + g[1])] = a.at(g);
        });
      }
    };
    record(src, out.src_vals);
    record(dst, out.dst_vals);
  });
  out.stats = m.stats();
  for (std::uint64_t n : planned) {
    out.planned_msgs += n;
  }
  return out;
}

TEST(RedistributeLines, MatchesLinePassThenRedistribute) {
  // Against the line loop followed by one redistribute: bit-identical
  // values, identical wire bytes, and exactly one message per slice and
  // peer with a non-empty slab — four times the oracle's count when every
  // rank owns at least four lines of a full-extent transpose, fewer when
  // some rank's slices are empty.  Under every contention tier.
  for (int p : {1, 2, 3, 4, 6, 16}) {
    const std::vector<LineCase> cases{
        {"transpose, 4 lines each", 4 * p, 2 * p + 1, 0, false},
        {"transpose, uneven", 4 * p + 3, 3 * p + 2, 0, false},
        {"transpose, < 4 lines", 2 * p + 1, 5, 0, false},
        {"transpose back", 3 * p + 1, 5 * p + 2, 1, false},
        {"line view to grid, columns", 7, 4 * p + 1, 1, true},
        {"line view to grid, rows", 5 * p + 3, 6, 0, true},
    };
    for (const LineCase& lc : cases) {
      SCOPED_TRACE("P=" + std::to_string(p) + " " + lc.name);
      const LineRun want = run_line_pass(p, lc, LinkContention::kNone, false);
      for (LinkContention tier : {LinkContention::kNone, LinkContention::kPorts,
                                  LinkContention::kStoreForward}) {
        SCOPED_TRACE("tier " + std::to_string(static_cast<int>(tier)));
        const LineRun got = run_line_pass(p, lc, tier, true);
        EXPECT_EQ(got.src_vals, want.src_vals);
        EXPECT_EQ(got.dst_vals, want.dst_vals);
        const ProcCounters g = got.stats.totals();
        const ProcCounters w = want.stats.totals();
        EXPECT_EQ(g.bytes_sent, w.bytes_sent);
        EXPECT_EQ(g.msgs_sent, got.planned_msgs);
        EXPECT_EQ(got.stats.sent_msgs(kTagRedistData), g.msgs_sent);
        EXPECT_EQ(got.stats.self_msgs_total(), 0u);
        EXPECT_TRUE(got.stats.unmatched_by_tag().empty());
        // A transpose's slab holds all of its sender's lines, so a sender
        // with at least four lines sends every slice to every peer.
        if (!lc.grid_dst) {
          const DimMap lines(DimDist::block_dist(),
                             lc.line_dim == 0 ? lc.nx : lc.ny, p);
          bool short_rank = false;
          for (int i = 0; i < p; ++i) {
            short_rank |= lines.count(i) > 0 && lines.count(i) < kLineSlices;
          }
          if (short_rank && p > 1) {
            EXPECT_LT(g.msgs_sent, kLineSlices * w.msgs_sent);
          } else {
            EXPECT_EQ(g.msgs_sent, kLineSlices * w.msgs_sent);
          }
        }
      }
    }
  }
}

TEST(RedistributeLines, RejectsCyclicLayoutsAndBadLineDim) {
  auto attempt = [](bool cyclic, int line_dim) {
    Machine m(2);
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(2);
      DistArray2<double> a(ctx, pv, {8, 8},
                           {cyclic ? DimDist::cyclic() : DimDist::block_dist(),
                            DimDist::star()});
      DistArray2<double> b(ctx, pv, {8, 8},
                           {DimDist::star(), DimDist::block_dist()});
      redistribute_lines(ctx, a, b, line_dim, [](int) {});
    });
  };
  EXPECT_NO_THROW(attempt(false, 0));
  EXPECT_THROW(attempt(true, 0), Error);
  EXPECT_THROW(attempt(false, 2), Error);
}

// ---------------------------------------------------------------------------
// Issue order of box exchanges: each sender orders its messages by an edge
// colouring of the exchange's own pair graph (detail::pair_graph_sort),
// observed here through the event log.
// ---------------------------------------------------------------------------

/// Each rank's redistribute sends in issue order (destination ranks), as
/// the event log recorded them.
std::vector<std::vector<int>> send_sequences(const EventLog& log) {
  std::vector<std::vector<int>> seqs(static_cast<std::size_t>(log.nprocs()));
  for (int r = 0; r < log.nprocs(); ++r) {
    for (const EventLog::Event& e : log.events(r)) {
      if (e.kind == EventLog::Kind::kSend && e.tag == kTagRedistData) {
        seqs[static_cast<std::size_t>(r)].push_back(e.peer);
      }
    }
  }
  return seqs;
}

/// A random 3-D layout over `v`: v.ndims() of the three dims block, the
/// rest star.
DistArray3<double>::Dists random_dists(Rng& rng, const ProcView& v) {
  DistArray3<double>::Dists d{DimDist::star(), DimDist::star(),
                              DimDist::star()};
  for (int placed = 0; placed < v.ndims();) {
    auto& slot = d[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    if (slot.kind == DistKind::kStar) {
      slot = DimDist::block_dist();
      ++placed;
    }
  }
  return d;
}

bool power_of_two(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

TEST(RedistributeOrder, LatinSquareOnCompleteBipartiteComponents) {
  // Box redistributes between random block/star layouts over random views.
  // In every component of the pair graph (senders x receivers) that is
  // complete bipartite with power-of-two sides and holds no self pair,
  // the senders issue in a latin square: no receiver holds the same issue
  // position in two senders' sequences when there are no more senders
  // than receivers, and none more than #senders / #receivers times
  // otherwise.  The machine-wide XOR order breaks this whenever the
  // component's ranks are not an aligned block.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const ProcView sv = random_view(rng);
    const ProcView dv = random_view(rng);
    const DistArray3<double>::Dists sd = random_dists(rng, sv);
    const DistArray3<double>::Dists dd = random_dists(rng, dv);
    const DistArray3<double>::Extents ext{rng.uniform_int(1, 12),
                                          rng.uniform_int(1, 12),
                                          rng.uniform_int(1, 12)};
    const int np = 1 + std::max(sv.rank_at(sv.count() - 1),
                                dv.rank_at(dv.count() - 1));
    std::vector<char> self_pair(static_cast<std::size_t>(np), 0);
    Machine m(np);
    EventLog log(np);
    m.attach_event_log(&log);
    m.run([&](Context& ctx) {
      DistArray3<double> a(ctx, sv, ext, sd);
      DistArray3<double> b(ctx, dv, ext, dd);
      a.fill([](std::array<int, 3> g) { return g[0] - 0.5 * g[1] + g[2]; });
      redistribute(ctx, a, b);
      b.for_each_owned([&](std::array<int, 3> g) {
        EXPECT_EQ(b.at(g), g[0] - 0.5 * g[1] + g[2]);
      });
      bool overlap = a.participating() && b.participating();
      for (int d = 0; d < 3 && overlap; ++d) {
        overlap = std::max(a.own_lower(d), b.own_lower(d)) <=
                  std::min(a.own_upper(d), b.own_upper(d));
      }
      self_pair[static_cast<std::size_t>(ctx.rank())] = overlap ? 1 : 0;
    });
    const auto seqs = send_sequences(log);

    // Components over sender nodes s and receiver nodes np + d.
    std::vector<int> root(2 * static_cast<std::size_t>(np));
    std::iota(root.begin(), root.end(), 0);
    auto find = [&](int x) {
      while (root[static_cast<std::size_t>(x)] != x) {
        x = root[static_cast<std::size_t>(x)] =
            root[static_cast<std::size_t>(root[static_cast<std::size_t>(x)])];
      }
      return x;
    };
    auto join = [&](int s, int d) {
      root[static_cast<std::size_t>(find(s))] = find(np + d);
    };
    for (int s = 0; s < np; ++s) {
      for (int d : seqs[static_cast<std::size_t>(s)]) {
        join(s, d);
      }
      if (self_pair[static_cast<std::size_t>(s)] != 0) {
        join(s, s);
      }
    }
    struct Component {
      std::vector<int> senders, receivers;
      std::size_t edges = 0;
      bool self = false;
    };
    std::map<int, Component> comps;
    for (int s = 0; s < np; ++s) {
      const auto& seq = seqs[static_cast<std::size_t>(s)];
      const bool self = self_pair[static_cast<std::size_t>(s)] != 0;
      if (!seq.empty() || self) {
        Component& c = comps[find(s)];
        c.senders.push_back(s);
        c.edges += seq.size() + (self ? 1 : 0);
        c.self |= self;
      }
    }
    for (int d = 0; d < np; ++d) {  // a receiver without edges finds none
      const auto it = comps.find(find(np + d));
      if (it != comps.end()) {
        it->second.receivers.push_back(d);
      }
    }
    for (const auto& [key, c] : comps) {
      const std::size_t ns = c.senders.size();
      const std::size_t nr = c.receivers.size();
      if (c.self || c.edges != ns * nr || !power_of_two(ns) ||
          !power_of_two(nr) || ns < 2 || nr < 2) {
        continue;
      }
      ++checked;
      const std::size_t bound = std::max<std::size_t>(1, ns / nr);
      for (int d : c.receivers) {
        std::map<std::size_t, std::size_t> at_position;
        for (int s : c.senders) {
          const auto& seq = seqs[static_cast<std::size_t>(s)];
          const auto pos = static_cast<std::size_t>(
              std::find(seq.begin(), seq.end(), d) - seq.begin());
          ++at_position[pos];
        }
        for (const auto& [pos, n] : at_position) {
          EXPECT_LE(n, bound) << "receiver " << d << " position " << pos;
        }
      }
    }
  }
  RecordProperty("components_checked", checked);
  EXPECT_GE(checked, 40);
}

TEST(RedistributeOrder, AdiSwitchDrainsWithinItsHRelation) {
  // ADI's direction switch (*, block) on grid1(16) -> (block, block) on
  // grid2(4, 4): four K(4,4) components, each with one self pair.  Under
  // the machine-wide XOR order, senders 12-15 all sent to rank 3 last, so
  // its ejection port took four messages in the last two slots and
  // drained two slots after the busiest sender.  Now every receiver's
  // port, taking one message per slot in arrival order, drains by the
  // exchange's h-relation: the most messages any rank sends or receives.
  Machine m(16);
  EventLog log(16);
  m.attach_event_log(&log);
  m.run([](Context& ctx) {
    DistArray2<double> cols(ctx, ProcView::grid1(16), {64, 64},
                            {DimDist::star(), DimDist::block_dist()});
    DistArray2<double> grid(ctx, ProcView::grid2(4, 4), {64, 64},
                            {DimDist::block_dist(), DimDist::block_dist()});
    cols.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    redistribute(ctx, cols, grid);
  });
  const auto seqs = send_sequences(log);
  std::vector<std::vector<std::size_t>> slots(16);  // per receiver
  std::size_t h = 0;
  for (std::size_t s = 0; s < 16; ++s) {
    h = std::max(h, seqs[s].size());
    for (std::size_t k = 0; k < seqs[s].size(); ++k) {
      slots[static_cast<std::size_t>(seqs[s][k])].push_back(k);
    }
  }
  for (const auto& in : slots) {
    h = std::max(h, in.size());
  }
  EXPECT_EQ(h, 4u);
  int last_to_3 = 0;
  for (std::size_t s = 12; s < 16; ++s) {
    last_to_3 += seqs[s].back() == 3 ? 1 : 0;
  }
  EXPECT_LE(last_to_3, 1);
  for (std::size_t d = 0; d < 16; ++d) {
    std::vector<std::size_t> in = slots[d];
    std::ranges::sort(in);
    std::size_t drained = 0;
    for (std::size_t k : in) {
      drained = std::max(drained, k) + 1;
    }
    EXPECT_LE(drained, h) << "receiver " << d;
  }
}

TEST(RedistributeOrder, DenseExchangesKeepTheRoundOrder) {
  // On a dense all-to-all every sender's pair-graph order is the
  // machine-wide round order round_sort gives: transposes over a whole
  // power-of-two machine and over an aligned half of one.
  for (int p : {2, 4, 8, 16}) {
    for (int base : {0, p}) {
      SCOPED_TRACE("p=" + std::to_string(p) + " base=" + std::to_string(base));
      const int np = base + p;
      Machine m(np);
      EventLog log(np);
      m.attach_event_log(&log);
      const ProcView pv = ProcView::grid1(p, base);
      m.run([&](Context& ctx) {
        DistArray2<double> rows(ctx, pv, {2 * p, 3 * p},
                                {DimDist::block_dist(), DimDist::star()});
        DistArray2<double> cols(ctx, pv, {2 * p, 3 * p},
                                {DimDist::star(), DimDist::block_dist()});
        rows.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
        redistribute(ctx, rows, cols);
      });
      const auto seqs = send_sequences(log);
      for (int r = base; r < np; ++r) {
        std::vector<std::pair<int, int>> want;
        for (int d = base; d < np; ++d) {
          if (d != r) {
            want.emplace_back(d, 0);
          }
        }
        detail::round_sort(want, np, r);
        std::vector<int> want_ranks;
        for (const auto& e : want) {
          want_ranks.push_back(e.first);
        }
        EXPECT_EQ(seqs[static_cast<std::size_t>(r)], want_ranks)
            << "rank " << r;
      }
    }
  }
}

TEST(RedistributeOrder, WalkPositionMatchesTheReceiversWalk) {
  // The O(R) position a sender computes for itself among a receiver's
  // sources equals its index in the receiver's own walk, on random
  // strided copies (steps skipping whole blocks included) with and without
  // the fused halo.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const ProcView sv = random_view(rng);
    const ProcView dv = random_view(rng);
    const DistArray3<double>::Dists sd = random_dists(rng, sv);
    const DistArray3<double>::Dists dd = random_dists(rng, dv);
    detail::BoxCopy c{"copy", kTagRemap};
    c.dim = rng.uniform_int(0, 2);
    c.count = rng.uniform_int(1, 8);
    c.s_stride = rng.uniform_int(1, 4);
    c.s_off = rng.uniform_int(0, 2);
    c.d_stride = rng.uniform_int(1, 3);
    c.d_off = rng.uniform_int(0, 2);
    c.fuse_halo = rng.uniform_int(0, 1) == 1;
    DistArray3<double>::Extents se{}, de{};
    DistArray3<double>::Halos dh{};
    for (std::size_t d = 0; d < 3; ++d) {
      se[d] = de[d] = rng.uniform_int(1, 12);
      dh[d] = c.fuse_halo && dd[d].kind == DistKind::kBlock ? 1 : 0;
    }
    const auto ud = static_cast<std::size_t>(c.dim);
    se[ud] = c.s_off + (c.count - 1) * c.s_stride + 1 + rng.uniform_int(0, 2);
    de[ud] = c.d_off + (c.count - 1) * c.d_stride + 1 + rng.uniform_int(0, 2);
    const int np = 1 + std::max(sv.rank_at(sv.count() - 1),
                                dv.rank_at(dv.count() - 1));
    Machine m(np);
    m.run([&](Context& ctx) {
      DistArray3<double> src(ctx, sv, se, sd);
      DistArray3<double> dst(ctx, dv, de, dd, dh);
      if (!src.participating()) {
        return;
      }
      for (int i = 0; i < dv.count(); ++i) {
        const detail::Box<3> rb = detail::block_box(
            dst, *dv.coord_of(dv.rank_at(i)), c.fuse_halo);
        const detail::TRange tr = detail::strided_steps(
            rb.lo[ud], rb.hi[ud], c.d_off, c.d_stride, c.count - 1);
        if (rb.empty() || tr.empty()) {
          continue;
        }
        std::vector<int> sources;
        detail::strided_peer_walk(src, rb, c.dim, tr, c.s_off, c.s_stride,
                                  false, [&](int rank, const detail::Box<3>&) {
                                    sources.push_back(rank);
                                  });
        const auto at = std::ranges::find(sources, ctx.rank());
        if (at != sources.end()) {
          EXPECT_EQ(detail::walk_position(src, rb, c.dim, tr, c.s_off,
                                          c.s_stride),
                    at - sources.begin());
        }
      }
    });
  }
}

}  // namespace
}  // namespace kali
