// E10 — redistribution engine: analytic slab intersection vs the original
// all-pairs {index, value} packet protocol, plus the link-contention sweeps:
// round-structured schedule vs naive per-peer issue order.
//
// Measures, on the modeled 1989 machine, the message count, wire bytes, and
// simulated makespan of redistribute() against the packet-flood oracle
// (tests/oracles/redistribute_reference.hpp) for transpose-style and
// reshape-style redistributions (the communication of the distributed FFT
// and the ADI direction switch) plus a general-path cyclic case.  Each case
// is then re-run under contention, once issuing through the round schedule
// and once in naive peer order — the modeled-time gap is what the schedule
// buys on serialized links.  Two
// contention sweeps are recorded: the single-port model
// (LinkContention::kPorts, hypercube) and the per-hop store-and-forward
// model (LinkContention::kStoreForward) on a 2-D mesh, where naive issue
// order oversubscribes the bisection edges toward each destination in turn
// and the per-edge queueing shows up as edge_wait_seconds / max_edge_load.
// `--json` emits the same numbers as a JSON document — the format consumed
// by the BENCH_*.json perf-trajectory files and the CI Release perf job.
//
// Element type is float: the reference packet {int64 idx, float val} pads
// to 16 bytes, so the raw-value slab protocol moves 4x fewer wire bytes.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "oracles/redistribute_reference.hpp"
#include "runtime/redistribute.hpp"

namespace kali {
namespace {

struct RunStats {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  double link_wait = 0.0;
  double edge_wait = 0.0;
  std::uint64_t max_edge_load = 0;
  std::uint64_t self_msgs = 0;
};

enum class Proto { kFast, kReference };

struct RunMode {
  Proto proto = Proto::kFast;
  LinkContention contention = LinkContention::kNone;
  IssueOrder order = IssueOrder::kRoundSchedule;
  Topology topology = Topology::kHypercube;
};

struct CaseResult {
  std::string name;
  std::string path;  // "box" or "general"
  int nprocs = 0;
  std::vector<int> extents;
  RunStats fast;      // no contention, round schedule
  RunStats ref;       // no contention, reference protocol
  RunStats sched;     // port contention, round schedule
  RunStats naive;     // port contention, naive peer order
  RunStats sf_sched;  // store-and-forward on a mesh, round schedule
  RunStats sf_naive;  // store-and-forward on a mesh, naive peer order
};

using Dists1 = DistArray1<float>::Dists;
using Dists2 = DistArray2<float>::Dists;

RunStats measure(Machine& m) {
  const MachineStats st = m.stats();
  const ProcCounters tot = st.totals();
  return {tot.msgs_sent,        tot.bytes_sent,     st.max_clock(),
          st.link_wait_time(),  st.edge_wait_time(), st.max_edge_load(),
          st.self_msgs_total()};
}

MachineConfig config_for(const RunMode& mode) {
  MachineConfig cfg = bench::config_1989();
  cfg.link_contention = mode.contention;
  cfg.topology = mode.topology;
  return cfg;
}

RunStats run2(int nprocs, int n, const ProcView& spv, Dists2 sd,
              const ProcView& dpv, Dists2 dd, const RunMode& mode) {
  Machine m(nprocs, config_for(mode));
  m.run([&](Context& ctx) {
    DistArray2<float> src(ctx, spv, {n, n}, sd);
    DistArray2<float> dst(ctx, dpv, {n, n}, dd);
    src.fill([n](std::array<int, 2> g) {
      return static_cast<float>(g[0] * n + g[1]);
    });
    if (mode.proto == Proto::kReference) {
      oracles::redistribute_reference(ctx, src, dst);
    } else {
      redistribute(ctx, src, dst, mode.order);
    }
  });
  return measure(m);
}

RunStats run1(int nprocs, int n, Dists1 sd, Dists1 dd, const RunMode& mode) {
  Machine m(nprocs, config_for(mode));
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(nprocs);
    DistArray1<float> src(ctx, pv, {n}, sd);
    DistArray1<float> dst(ctx, pv, {n}, dd);
    src.fill([](std::array<int, 1> g) { return static_cast<float>(g[0]); });
    if (mode.proto == Proto::kReference) {
      oracles::redistribute_reference(ctx, src, dst);
    } else {
      redistribute(ctx, src, dst, mode.order);
    }
  });
  return measure(m);
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// ---------------------------------------------------------------------------
// Halo / all-gather sweep: the two exchanges PR 5 routed through the round
// schedule — corner-mode halo exchange (diagonal peers, one scheduled round
// trip) and the collectives layer's all_gather — measured scheduled vs
// naive issue order under both contention tiers.
// ---------------------------------------------------------------------------

/// One exchange measured under kPorts (hypercube) and kStoreForward (mesh),
/// each scheduled vs naive issue order.
struct SweepResult {
  RunStats sched;
  RunStats naive;
  RunStats sf_sched;
  RunStats sf_naive;
};

RunStats run_halo(int nprocs, int n, const RunMode& mode) {
  int side = 1;
  while ((side + 1) * (side + 1) <= nprocs) {
    ++side;
  }
  KALI_CHECK(side * side == nprocs, "halo sweep needs a square rank count");
  Machine m(nprocs, config_for(mode));
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(side, side);
    DistArray2<float> a(ctx, pv, {n, n},
                        {DimDist::block_dist(), DimDist::block_dist()},
                        {1, 1});
    a.fill([n](std::array<int, 2> g) {
      return static_cast<float>(g[0] * n + g[1]);
    });
    a.exchange_halo(HaloCorners::kYes, mode.order);
  });
  return measure(m);
}

RunStats run_all_gather(int nprocs, int count, const RunMode& mode) {
  MachineConfig cfg = config_for(mode);
  // This sweep compares issue orders of the dense pairwise exchange; pin
  // the dense path (and skip its size-agreement round) so the hybrid's
  // tiny-payload tree never swaps the algorithm under the measurement.
  cfg.allgather_tree_max_bytes = 0;
  Machine m(nprocs, cfg);
  m.run([&](Context& ctx) {
    std::vector<float> mine(static_cast<std::size_t>(count),
                            static_cast<float>(ctx.rank()));
    (void)all_gather(ctx, ProcView::grid1(nprocs),
                     std::span<const float>(mine), mode.order);
  });
  return measure(m);
}

template <class RunFn>
SweepResult sweep(RunFn run_fn) {
  SweepResult r;
  r.sched = run_fn(RunMode{Proto::kFast, LinkContention::kPorts,
                           IssueOrder::kRoundSchedule, Topology::kHypercube});
  r.naive = run_fn(RunMode{Proto::kFast, LinkContention::kPorts,
                           IssueOrder::kPeerOrder, Topology::kHypercube});
  r.sf_sched =
      run_fn(RunMode{Proto::kFast, LinkContention::kStoreForward,
                     IssueOrder::kRoundSchedule, Topology::kMesh2D});
  r.sf_naive = run_fn(RunMode{Proto::kFast, LinkContention::kStoreForward,
                              IssueOrder::kPeerOrder, Topology::kMesh2D});
  return r;
}


void print_run(std::ostream& os, const char* key, const RunStats& r,
               const char* indent) {
  os << indent << "\"" << key << "\": {\"msgs\": " << r.msgs
     << ", \"wire_bytes\": " << r.bytes << ", \"modeled_seconds\": " << r.seconds
     << ", \"link_wait_seconds\": " << r.link_wait
     << ", \"edge_wait_seconds\": " << r.edge_wait
     << ", \"max_edge_load\": " << r.max_edge_load
     << ", \"self_msgs\": " << r.self_msgs << "}";
}

void print_sweep(std::ostream& os, const SweepResult& r) {
  os << "      \"ports\": {\n";
  print_run(os, "scheduled", r.sched, "       ");
  os << ",\n";
  print_run(os, "naive_order", r.naive, "       ");
  os << ",\n       \"schedule_speedup\": "
     << ratio(r.naive.seconds, r.sched.seconds) << "\n      },\n"
     << "      \"store_forward\": {\"topology\": \"mesh2d\",\n";
  print_run(os, "scheduled", r.sf_sched, "       ");
  os << ",\n";
  print_run(os, "naive_order", r.sf_naive, "       ");
  os << ",\n       \"schedule_speedup\": "
     << ratio(r.sf_naive.seconds, r.sf_sched.seconds) << "\n      }";
}

void print_json(const std::vector<CaseResult>& results,
                const SweepResult& halo, const SweepResult& ag, int p, int n,
                int ag_elems, std::ostream& os) {
  os << "{\n"
     << "  \"bench\": \"bench_redistribute\",\n"
     << "  \"machine_model\": \"1989-hypercube (10 MFLOPS, ~100us latency, "
        "2.5 MB/s links)\",\n"
     << "  \"elem_bytes\": 4,\n"
     << "  \"reference\": \"all-pairs {int64 idx, float val} packet flood\",\n"
     << "  \"contention_models\": \"ports = single-port injection/ejection "
        "links on the hypercube; store_forward = per-edge store-and-forward "
        "queueing on a 2-D mesh (LinkContention)\",\n"
     << "  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& c = results[i];
    os << "    {\"name\": \"" << c.name << "\", \"path\": \"" << c.path
       << "\", \"nprocs\": " << c.nprocs << ", \"extents\": [";
    for (std::size_t d = 0; d < c.extents.size(); ++d) {
      os << (d ? ", " : "") << c.extents[d];
    }
    os << "],\n";
    print_run(os, "redistribute", c.fast, "     ");
    os << ",\n";
    print_run(os, "reference_idxval", c.ref, "     ");
    os << ",\n"
       << "     \"msg_ratio\": "
       << ratio(static_cast<double>(c.ref.msgs), static_cast<double>(c.fast.msgs))
       << ", \"byte_ratio\": "
       << ratio(static_cast<double>(c.ref.bytes), static_cast<double>(c.fast.bytes))
       << ", \"time_ratio\": " << ratio(c.ref.seconds, c.fast.seconds) << ",\n"
       << "     \"contention\": {\n";
    print_run(os, "scheduled", c.sched, "      ");
    os << ",\n";
    print_run(os, "naive_order", c.naive, "      ");
    os << ",\n"
       << "      \"schedule_speedup\": " << ratio(c.naive.seconds, c.sched.seconds)
       << ", \"contention_slowdown\": " << ratio(c.sched.seconds, c.fast.seconds)
       << "\n     },\n"
       << "     \"store_forward\": {\"topology\": \"mesh2d\",\n";
    print_run(os, "scheduled", c.sf_sched, "      ");
    os << ",\n";
    print_run(os, "naive_order", c.sf_naive, "      ");
    os << ",\n"
       << "      \"schedule_speedup\": "
       << ratio(c.sf_naive.seconds, c.sf_sched.seconds)
       << "\n     }}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"halo_allgather\": {\n"
     << "    \"halo_corner\": {\"nprocs\": " << p << ", \"extents\": [" << n
     << ", " << n
     << "], \"halo\": 1, \"mode\": \"HaloCorners::kYes (single scheduled "
        "exchange, diagonal peers)\",\n";
  print_sweep(os, halo);
  os << "\n    },\n"
     << "    \"all_gather\": {\"nprocs\": " << p
     << ", \"elems_per_rank\": " << ag_elems
     << ", \"mode\": \"collectives all_gather (dense pairwise rounds)\",\n";
  print_sweep(os, ag);
  os << "\n    }\n  }\n}\n";
}

}  // namespace
}  // namespace kali

int main(int argc, char** argv) {
  using namespace kali;
  const bool json = argc > 1 && std::string(argv[1]) == "--json";

  const int p = 16;
  const int n = 1024;
  std::vector<CaseResult> results;

  const RunMode kFast{Proto::kFast, LinkContention::kNone,
                      IssueOrder::kRoundSchedule, Topology::kHypercube};
  const RunMode kRef{Proto::kReference, LinkContention::kNone,
                     IssueOrder::kRoundSchedule, Topology::kHypercube};
  const RunMode kSched{Proto::kFast, LinkContention::kPorts,
                       IssueOrder::kRoundSchedule, Topology::kHypercube};
  const RunMode kNaive{Proto::kFast, LinkContention::kPorts,
                       IssueOrder::kPeerOrder, Topology::kHypercube};
  // Store-and-forward sweep on the 2-D mesh, where X-Y routing funnels
  // whole waves of naive-order messages through single bisection edges.
  const RunMode kSfSched{Proto::kFast, LinkContention::kStoreForward,
                         IssueOrder::kRoundSchedule, Topology::kMesh2D};
  const RunMode kSfNaive{Proto::kFast, LinkContention::kStoreForward,
                         IssueOrder::kPeerOrder, Topology::kMesh2D};

  {
    // The fft2 transpose: (block, *) -> (*, block).  Every off-diagonal
    // rank pair intersects in a 64x64 slab; the diagonal is a local copy.
    CaseResult c;
    c.name = "transpose_rows_to_cols";
    c.path = "box";
    c.nprocs = p;
    c.extents = {n, n};
    const Dists2 rows{DimDist::block_dist(), DimDist::star()};
    const Dists2 cols{DimDist::star(), DimDist::block_dist()};
    const ProcView pv = ProcView::grid1(p);
    c.fast = run2(p, n, pv, rows, pv, cols, kFast);
    c.ref = run2(p, n, pv, rows, pv, cols, kRef);
    c.sched = run2(p, n, pv, rows, pv, cols, kSched);
    c.naive = run2(p, n, pv, rows, pv, cols, kNaive);
    c.sf_sched = run2(p, n, pv, rows, pv, cols, kSfSched);
    c.sf_naive = run2(p, n, pv, rows, pv, cols, kSfNaive);
    results.push_back(c);
  }
  {
    // Grid reshape (block, block) 4x4 -> 16x1: only 4 destination slabs
    // overlap each source quadrant, so the message flood shrinks 4x too.
    CaseResult c;
    c.name = "grid_reshape_4x4_to_16x1";
    c.path = "box";
    c.nprocs = p;
    c.extents = {n, n};
    const Dists2 bb{DimDist::block_dist(), DimDist::block_dist()};
    const ProcView spv = ProcView::grid2(4, 4);
    const ProcView dpv = ProcView::grid2(16, 1);
    c.fast = run2(p, n, spv, bb, dpv, bb, kFast);
    c.ref = run2(p, n, spv, bb, dpv, bb, kRef);
    c.sched = run2(p, n, spv, bb, dpv, bb, kSched);
    c.naive = run2(p, n, spv, bb, dpv, bb, kNaive);
    c.sf_sched = run2(p, n, spv, bb, dpv, bb, kSfSched);
    c.sf_naive = run2(p, n, spv, bb, dpv, bb, kSfNaive);
    results.push_back(c);
  }
  {
    // ADI's direction switch back to the grid: (*, block) on a line of 16
    // -> (block, block) 4x4.  Four senders meet four receivers in each of
    // four components, one rank on both sides; ordered by the
    // exchange's own pair graph, no receiver's port is left with its
    // four messages for last.
    CaseResult c;
    c.name = "adi_switch_cols_to_4x4";
    c.path = "box";
    c.nprocs = p;
    c.extents = {n, n};
    const Dists2 cols{DimDist::star(), DimDist::block_dist()};
    const Dists2 bb{DimDist::block_dist(), DimDist::block_dist()};
    const ProcView spv = ProcView::grid1(p);
    const ProcView dpv = ProcView::grid2(4, 4);
    c.fast = run2(p, n, spv, cols, dpv, bb, kFast);
    c.ref = run2(p, n, spv, cols, dpv, bb, kRef);
    c.sched = run2(p, n, spv, cols, dpv, bb, kSched);
    c.naive = run2(p, n, spv, cols, dpv, bb, kNaive);
    c.sf_sched = run2(p, n, spv, cols, dpv, bb, kSfSched);
    c.sf_naive = run2(p, n, spv, cols, dpv, bb, kSfNaive);
    results.push_back(c);
  }
  {
    // Identity layout: the degenerate best case — every rank's slab is its
    // own, so the fast path sends nothing at all, while the reference
    // still floods the 240 non-self pairs.
    CaseResult c;
    c.name = "identity_4x4";
    c.path = "box";
    c.nprocs = p;
    c.extents = {n, n};
    const Dists2 bb{DimDist::block_dist(), DimDist::block_dist()};
    const ProcView pv = ProcView::grid2(4, 4);
    c.fast = run2(p, n, pv, bb, pv, bb, kFast);
    c.ref = run2(p, n, pv, bb, pv, bb, kRef);
    c.sched = run2(p, n, pv, bb, pv, bb, kSched);
    c.naive = run2(p, n, pv, bb, pv, bb, kNaive);
    c.sf_sched = run2(p, n, pv, bb, pv, bb, kSfSched);
    c.sf_naive = run2(p, n, pv, bb, pv, bb, kSfNaive);
    results.push_back(c);
  }
  {
    // General path: cyclic -> block-cyclic falls back to per-dim owner
    // binning (O(n + peers) instead of the reference's O(n * P) scan).
    CaseResult c;
    c.name = "cyclic_to_block_cyclic4_1d";
    c.path = "general";
    c.nprocs = p;
    c.extents = {n * n};
    const Dists1 sd{DimDist::cyclic()};
    const Dists1 dd{DimDist::block_cyclic(4)};
    c.fast = run1(p, n * n, sd, dd, kFast);
    c.ref = run1(p, n * n, sd, dd, kRef);
    c.sched = run1(p, n * n, sd, dd, kSched);
    c.naive = run1(p, n * n, sd, dd, kNaive);
    c.sf_sched = run1(p, n * n, sd, dd, kSfSched);
    c.sf_naive = run1(p, n * n, sd, dd, kSfNaive);
    results.push_back(c);
  }

  // Halo / all-gather sweep: the exchanges routed through the round
  // schedule in PR 5, same two contention tiers as the cases above.  The
  // all_gather contribution matches the transpose's per-rank slab volume.
  const int ag_elems = n * n / p;
  const SweepResult halo =
      sweep([&](const RunMode& mode) { return run_halo(p, n, mode); });
  const SweepResult ag = sweep(
      [&](const RunMode& mode) { return run_all_gather(p, ag_elems, mode); });

  if (json) {
    print_json(results, halo, ag, p, n, ag_elems, std::cout);
    return 0;
  }

  bench::header("E10", "Redistribution: slab intersection vs all-pairs packets",
                "redistribute() communication engine + link-contention sweep");
  Table t({"case", "path", "msgs new/ref", "wire bytes new/ref",
           "modeled s new/ref", "byte ratio", "time ratio"});
  for (const CaseResult& c : results) {
    t.add_row({c.name, c.path,
               std::to_string(c.fast.msgs) + " / " + std::to_string(c.ref.msgs),
               std::to_string(c.fast.bytes) + " / " + std::to_string(c.ref.bytes),
               fmt(c.fast.seconds) + " / " + fmt(c.ref.seconds),
               fmt(ratio(static_cast<double>(c.ref.bytes),
                         static_cast<double>(c.fast.bytes)),
                   2),
               fmt(ratio(c.ref.seconds, c.fast.seconds), 2)});
  }
  t.print(std::cout);

  std::cout << "\nlink contention enabled (single-port links):\n\n";
  Table tc({"case", "scheduled s", "naive-order s", "schedule speedup",
            "link wait sched/naive", "self msgs"});
  for (const CaseResult& c : results) {
    tc.add_row({c.name, fmt(c.sched.seconds), fmt(c.naive.seconds),
                fmt(ratio(c.naive.seconds, c.sched.seconds), 2),
                fmt(c.sched.link_wait) + " / " + fmt(c.naive.link_wait),
                std::to_string(c.sched.self_msgs)});
  }
  tc.print(std::cout);

  std::cout << "\nstore-and-forward on a 2-D mesh (per-edge queueing):\n\n";
  Table ts({"case", "scheduled s", "naive-order s", "schedule speedup",
            "edge wait sched/naive", "max edge load sched/naive"});
  for (const CaseResult& c : results) {
    ts.add_row({c.name, fmt(c.sf_sched.seconds), fmt(c.sf_naive.seconds),
                fmt(ratio(c.sf_naive.seconds, c.sf_sched.seconds), 2),
                fmt(c.sf_sched.edge_wait) + " / " + fmt(c.sf_naive.edge_wait),
                std::to_string(c.sf_sched.max_edge_load) + " / " +
                    std::to_string(c.sf_naive.max_edge_load)});
  }
  ts.print(std::cout);
  std::cout << "\ncorner-mode halo exchange and all_gather (scheduled vs "
               "naive issue order):\n\n";
  Table th({"exchange", "tier", "scheduled s", "naive-order s",
            "schedule speedup", "self msgs"});
  auto sweep_rows = [&](const char* name, const SweepResult& r) {
    th.add_row({name, "ports", fmt(r.sched.seconds), fmt(r.naive.seconds),
                fmt(ratio(r.naive.seconds, r.sched.seconds), 2),
                std::to_string(r.sched.self_msgs)});
    th.add_row({name, "store-forward", fmt(r.sf_sched.seconds),
                fmt(r.sf_naive.seconds),
                fmt(ratio(r.sf_naive.seconds, r.sf_sched.seconds), 2),
                std::to_string(r.sf_sched.self_msgs)});
  };
  sweep_rows(("halo corners " + std::to_string(n) + "^2/" + std::to_string(p))
                 .c_str(),
             halo);
  sweep_rows(("all_gather " + std::to_string(ag_elems) + "/" +
              std::to_string(p))
                 .c_str(),
             ag);
  th.print(std::cout);

  std::cout << "\nthe slab protocol must send no empty and no self messages\n"
            << "and, for the float transpose, move >= 4x fewer wire bytes\n"
            << "than the reference's padded {int64, float} packets; under\n"
            << "link contention the round-structured schedule must beat\n"
            << "naive per-peer issue order on modeled time.\n";
  return 0;
}
