// Message-trace demo: run a mixed communication workload — corner-mode
// halo exchange, redistribution, an inspector/executor gather, an
// all_gather, a split-phase halo and a FIFO lane, one mg3 V-cycle, a line
// pass pipelined into a transpose (several open exchanges on one lane), a
// split-phase corner halo under a 9-point stencil and a split-phase
// cyclic redistribution, a 16^3 mg3 V-cycle whose coarse z levels
// agglomerate onto three of four processor columns, and sync_clocks
// barriers — on 8 ranks with an EventLog attached, then write its message
// trace for the offline protocol verifier:
//
//   build/comm_trace /tmp/run.trace
//   tools/check_trace.py /tmp/run.trace
//
// With no argument the trace goes to stdout.  A second argument
// additionally writes the run's happens-before event log for the
// determinism analyzer:
//
//   build/comm_trace /tmp/run.trace /tmp/run.hb
//   tools/check_hb.py /tmp/run.hb
//
// scripts/check_trace.sh and scripts/check_hb.sh run these pipelines end
// to end (and CI runs them on every push), so the artifacts the verifiers
// certify are always the ones the current runtime emits.
#include <cmath>
#include <fstream>
#include <iostream>
#include <ostream>

#include "machine/context.hpp"
#include "runtime/doall.hpp"
#include "runtime/inspector.hpp"
#include "runtime/redistribute.hpp"
#include "solvers/mg3.hpp"

int main(int argc, char** argv) {
  using namespace kali;
  constexpr int kProcs = 8;
  constexpr int kN = 24;

  Machine machine(kProcs);
  EventLog log(kProcs);
  machine.attach_event_log(&log);

  machine.run([&](Context& ctx) {
    ProcView row = ProcView::grid1(kProcs);
    ProcView grid = ProcView::grid2(4, 2);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(),
                                   DimDist::block_dist()};

    // Phase 1: corner-mode halo exchange (coalesced wire) on a 4x2 grid.
    D2 u(ctx, grid, {kN, kN}, dists, {1, 1});
    u.fill([](std::array<int, 2> g) {
      return std::sin(0.1 * g[0]) + std::cos(0.2 * g[1]);
    });
    u.exchange_halo(HaloCorners::kYes);
    Group everyone = grid.group(ctx.rank());
    sync_clocks(ctx, everyone);

    // Phase 2: redistribute the 2-D block slab onto a 1-D row of owners.
    ProcView col = ProcView::grid2(1, kProcs);
    D2 v(ctx, col, {kN, kN}, dists);
    redistribute(ctx, u, v);
    sync_clocks(ctx, everyone);

    // Phase 3: inspector/executor gather of a strided remote section.
    DistArray1<double> a(ctx, row, {kProcs * 16}, {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 0.5 * g[0]; });
    std::vector<int> wants;
    for (int k = 0; k < 16; ++k) {
      wants.push_back((a.own_lower(0) + 5 * k) % (kProcs * 16));
    }
    auto plan = GatherPlan::build(a, wants);
    auto vals = plan.execute(a);

    // Phase 4: all_gather a per-rank digest of the fetched values.
    double digest = 0.0;
    for (double x : vals) {
      digest += x;
    }
    std::vector<double> digests = all_gather(
        ctx, everyone, std::span<const double>(&digest, 1));
    (void)digests;
    sync_clocks(ctx, everyone);

    // Phase 5: the async leg — a split-phase halo exchange overlapping a
    // 5-point interior stencil (doall_overlap: exchange_halo_begin, interior,
    // finish, whose batched receive charges in canonical key order, then the
    // boundary), then a raw ring exchange of
    // two messages on one (src, dst, tag) lane: the receives pair with the
    // sends in FIFO order, which the trace verifier checks.
    D2 r(ctx, grid, {kN, kN}, dists);
    auto stencil = [&](int i, int j) {
      r(i, j) = 4.0 * u.at_halo({i, j}) - u.at_halo({i - 1, j}) -
                u.at_halo({i + 1, j}) - u.at_halo({i, j - 1}) -
                u.at_halo({i, j + 1});
    };
    doall_overlap(u.exchange_halo_begin(), u,
                  {Range{0, kN - 1}, Range{0, kN - 1}}, stencil, 6.0);
    sync_clocks(ctx, everyone);

    constexpr int kAsyncTag = 77;  // user band
    const int next = (ctx.rank() + 1) % kProcs;
    const int prev = (ctx.rank() + kProcs - 1) % kProcs;
    ctx.send<double>(next, kAsyncTag, digest);
    ctx.send<double>(next, kAsyncTag, 2.0 * digest);  // same lane
    (void)ctx.recv<double>(prev, kAsyncTag);
    (void)ctx.recv<double>(prev, kAsyncTag);  // lane FIFO: the 2x payload
    sync_clocks(ctx, everyone);

    // Phase 6: one small mg3 V-cycle on the 4x2 grid — the solver path of
    // the benchmark's mg3 workload: halo exchanges, the z-level switches
    // (copy_strided_dim_halo) and one stacked mg2 per processor column,
    // whose coarse levels spread the column's planes over its ranks.
    constexpr int kMg = 16;
    using D3 = DistArray3<double>;
    const typename D3::Dists dists3{DimDist::star(), DimDist::block_dist(),
                                    DimDist::block_dist()};
    Op3 op;
    op.hx = op.hy = op.hz = 1.0 / kMg;
    D3 u3(ctx, grid, {kMg + 1, kMg + 1, kMg + 1}, dists3, {0, 1, 1});
    D3 f3(ctx, grid, {kMg + 1, kMg + 1, kMg + 1}, dists3);
    f3.fill([&](std::array<int, 3> g) {
      return rhs3(op, g[0] * op.hx, g[1] * op.hy, g[2] * op.hz);
    });
    mg3_cycle(op, u3, f3);
    sync_clocks(ctx, everyone);

    // Phase 7: a line pass pipelined into a transpose (redistribute_lines).
    // Each rank's five rows leave in four strided slices, so a receiver
    // holds up to four open exchanges on one (src, kTagRedistData) lane
    // and finishes them in the order they began.
    constexpr int kLines = 5 * kProcs;
    D2 rows(ctx, row, {kLines, kN}, {DimDist::block_dist(), DimDist::star()});
    D2 cols(ctx, row, {kLines, kN}, {DimDist::star(), DimDist::block_dist()});
    rows.fill([](std::array<int, 2> g) { return 0.5 * g[0] - g[1]; });
    redistribute_lines(ctx, rows, cols, 0, [&](int i) {
      const Strided<double> s = rows.fix(0, i).local_strided();
      for (int j = 0; j < s.n; ++j) {
        s[j] *= 2.0;
      }
      ctx.compute(s.n);
    });
    sync_clocks(ctx, everyone);

    // Phase 8: the corner halo split-phase — a 9-point stencil's interior
    // runs while the kTagHalo messages are in flight — then a
    // cyclic -> block-cyclic redistribution (the binner) with owned-cell
    // work in its window.
    D2 nine(ctx, grid, {kN, kN}, dists);
    auto stencil9 = [&](int i, int j) {
      double acc = 0.0;
      for (int di = -1; di <= 1; ++di) {
        for (int dj = -1; dj <= 1; ++dj) {
          acc += u.at_halo({i + di, j + dj});
        }
      }
      nine(i, j) = acc / 9.0;
    };
    doall_overlap(u.exchange_halo_begin(HaloCorners::kYes), u,
                  {Range{0, kN - 1}, Range{0, kN - 1}}, stencil9, 9.0);
    DistArray1<double> cyc(ctx, row, {kProcs * 16}, {DimDist::cyclic()});
    DistArray1<double> bcyc(ctx, row, {kProcs * 16},
                            {DimDist::block_cyclic(3)});
    cyc.fill([](std::array<int, 1> g) { return 0.25 * g[0]; });
    auto ex = redistribute_begin(ctx, cyc, bcyc);
    ctx.compute(static_cast<double>(cyc.local_count(0)));
    ex.finish();
    sync_clocks(ctx, everyone);

    // Phase 9: one 16^3 mg3 V-cycle on a 2x4 grid.  Its 9-plane z level
    // does not fit four columns, so the coarse levels agglomerate onto the
    // first three and their plane solves run there side by side.
    ProcView tall = ProcView::grid2(2, 4);
    D3 v3(ctx, tall, {kMg + 1, kMg + 1, kMg + 1}, dists3, {0, 1, 1});
    D3 g3(ctx, tall, {kMg + 1, kMg + 1, kMg + 1}, dists3);
    g3.fill([&](std::array<int, 3> g) {
      return rhs3(op, g[0] * op.hx, g[1] * op.hy, g[2] * op.hz);
    });
    mg3_cycle(op, v3, g3);
    sync_clocks(ctx, everyone);
  });

  if (argc > 1) {
    std::ofstream os(argv[1]);
    if (!os) {
      std::cerr << "comm_trace: cannot open " << argv[1] << "\n";
      return 1;
    }
    log.write_trace(os);
  } else {
    log.write_trace(std::cout);
  }
  if (argc > 2) {
    std::ofstream os(argv[2]);
    if (!os) {
      std::cerr << "comm_trace: cannot open " << argv[2] << "\n";
      return 1;
    }
    log.write_hb(os);
  }
  // The trace's own records, which are the same on every run (the HB
  // log's park/wake records follow host scheduling and are not).
  std::size_t sends = 0;
  std::size_t recvs = 0;
  for (int r = 0; r < kProcs; ++r) {
    for (const EventLog::Event& e : log.events(r)) {
      sends += e.kind == EventLog::Kind::kSend ? 1 : 0;
      recvs += e.kind == EventLog::Kind::kRecv ? 1 : 0;
    }
  }
  std::cerr << "comm_trace: " << sends << " sends, " << recvs
            << " receives on " << kProcs << " ranks\n";
  return 0;
}
