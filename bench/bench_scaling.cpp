// E12 — scaling sweeps on the fiber-scheduled machine: P = 1024..65536
// simulated ranks, the population the thread-per-rank Machine::run could
// never host.  Three communication patterns, each validated against the
// Predictor's closed forms (metrics/predictor.hpp) at LinkContention::kNone,
// the tier where the forms are exact or tightly bounded:
//
//  * pencil transpose — dense pairwise lockstep exchange inside sqrt(P)
//    rank groups (the fft2/ADI direction-switch shape at scale).  Lockstep
//    keeps in-flight mailbox memory O(1) per pair, which is what makes a
//    16.7M-message exchange at P=65536 simulable at all; the simulated
//    makespan must match Predictor::all_to_all_lockstep to the bit-level
//    tolerance of the clock algebra.
//
//  * corner halo — 8-neighbor halo exchange on a sqrt(P) x sqrt(P)
//    processor mesh (DistArray2 exchange_halo, HaloCorners::kYes), the
//    PR-5 scheduled exchange; message count must match the closed form.
//
//  * all_gather (hybrid tree path) — tiny contributions inside sqrt(P)
//    groups ride the binary gather+broadcast tree: O(P) messages machine
//    wide versus the dense exchange's P(sqrt(P)-1), at a bounded
//    constant-factor makespan premium over the dense closed form
//    Predictor::all_gather (serialized per-level latency is the price of
//    the message-count win).
//
//  * split-phase halo — face-mode exchange_halo_begin with the interior
//    5-point stencil computed between post and wait (doall_overlap), gated
//    bit-identical against its blocking oracle and required to hide a
//    nonzero fraction of in-flight wire time (overlap_ratio > 0) at every
//    point, including the P=1024 CI smoke step.
//
// `--smoke` runs P=1024 only (the CI scaling-smoke step); `--json` emits
// the BENCH_scaling.json document (docs/benchmarks.md).
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "machine/collectives.hpp"
#include "machine/schedule.hpp"
#include "metrics/predictor.hpp"
#include "runtime/dist_array.hpp"
#include "oracles/blocking_exchange.hpp"
#include "runtime/doall.hpp"

namespace kali {
namespace {

struct RunStats {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  /// Hidden / total in-flight wire time (MachineStats::overlap_ratio):
  /// zero for every blocking pattern, positive only where split-phase
  /// receives hid wire time behind compute.
  double overlap_ratio = 0.0;
};

RunStats measure(Machine& m) {
  const MachineStats st = m.stats();
  const ProcCounters tot = st.totals();
  return {tot.msgs_sent, tot.bytes_sent, st.max_clock(), st.overlap_ratio()};
}

MachineConfig scaling_config() {
  MachineConfig cfg = bench::config_1989();
  cfg.topology = Topology::kHypercube;
  cfg.link_contention = LinkContention::kNone;  // the Predictor-exact tier
  return cfg;
}

/// Largest power of two whose square divides p (p is 4^k here, so just
/// sqrt): the group side for the pencil sweeps.
int group_side(int p) {
  int g = 1;
  while (g * g < p) {
    g *= 2;
  }
  KALI_CHECK(g * g == p, "scaling sweep needs P = 4^k");
  return g;
}

// --- pencil transpose: lockstep pairwise exchange inside sqrt(P) groups --

constexpr int kSlabDoubles = 32;  // 256 B per pair: memory-safe at 16.7M msgs

RunStats run_transpose(int nprocs) {
  Machine m(nprocs, scaling_config());
  m.run([&](Context& ctx) {
    const int g = group_side(ctx.nprocs());
    const int lane = ctx.rank() % g;
    const int base = ctx.rank() - lane;
    const CommSchedule sched(g);
    std::vector<double> slab(static_cast<std::size_t>(kSlabDoubles),
                             static_cast<double>(ctx.rank()));
    for (int r = 0; r < sched.rounds(); ++r) {
      const int p = sched.partner(r, lane);
      if (p == lane) {
        continue;
      }
      // Lockstep: send to the round partner, then drain its message before
      // advancing — in-flight stays at one slab per pair, whatever P is.
      ctx.send_span<double>(base + p, 7, std::span<const double>(slab));
      const auto got = ctx.recv_vec<double>(base + p, 7);
      KALI_CHECK(got.size() == slab.size(), "bad slab");
    }
  });
  return measure(m);
}

/// The exact closed form for one group (groups are independent and, on a
/// hypercube, cost-identical: lane distances inside a group do not depend
/// on the group's base rank).
double predicted_transpose(int nprocs) {
  const int g = group_side(nprocs);
  MachineConfig cfg = scaling_config();
  return Predictor(cfg, g).all_to_all_lockstep(
      g, static_cast<double>(kSlabDoubles * sizeof(double)),
      LinkContention::kNone);
}

// --- corner halo: 8-neighbor exchange on a sqrt(P) x sqrt(P) mesh --------

RunStats run_corner_halo(int nprocs) {
  const int side = group_side(nprocs);
  const int n = 4 * side;  // 4x4 interior points per rank
  Machine m(nprocs, scaling_config());
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(side, side);
    DistArray2<double> a(ctx, pv, {n, n},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {1, 1});
    a.fill([n](std::array<int, 2> c) {
      return static_cast<double>(c[0] * n + c[1]);
    });
    a.exchange_halo(HaloCorners::kYes);
  });
  return measure(m);
}

/// Ordered neighbor pairs of a side x side grid: faces + diagonals.
std::uint64_t expected_halo_msgs(int nprocs) {
  const std::uint64_t s = static_cast<std::uint64_t>(group_side(nprocs));
  return 2 * (s - 1) * s      // x faces
         + 2 * s * (s - 1)    // y faces
         + 4 * (s - 1) * (s - 1);  // diagonals
}

// --- split-phase halo: face exchange overlapped with the interior stencil

/// Face-mode halo + 5-point stencil, `split` running the exchange
/// split-phase with the interior inside the window (doall_overlap) and
/// !split the blocking oracle (tests/oracles/blocking_exchange.hpp).  `digests` gets one FNV-1a hash
/// of each rank's result bits, so run_point can gate bit-identity between
/// the two forms without shipping the full fields around.
RunStats run_overlap_halo(int nprocs, bool split,
                          std::vector<std::uint64_t>* digests) {
  const int side = group_side(nprocs);
  const int n = 4 * side;  // 4x4 interior points per rank
  Machine m(nprocs, scaling_config());
  std::vector<std::uint64_t> local(static_cast<std::size_t>(nprocs));
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(side, side);
    using D2 = DistArray2<double>;
    const typename D2::Dists dists{DimDist::block_dist(),
                                   DimDist::block_dist()};
    D2 a(ctx, pv, {n, n}, dists, {1, 1});
    D2 r(ctx, pv, {n, n}, dists);
    a.fill([n](std::array<int, 2> c) {
      return static_cast<double>(c[0] * n + c[1]);
    });
    auto body = [&](int i, int j) {
      r(i, j) = 4.0 * a.at_halo({i, j}) - a.at_halo({i - 1, j}) -
                a.at_halo({i + 1, j}) - a.at_halo({i, j - 1}) -
                a.at_halo({i, j + 1});
    };
    if (split) {
      doall_overlap(a.exchange_halo_begin(), a,
                    {Range{0, n - 1}, Range{0, n - 1}}, body, 6.0);
    } else {
      oracles::blocking_halo(a);
      doall2(r, Range{0, n - 1}, Range{0, n - 1}, body, 6.0);
    }
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over result bits
    r.for_each_owned([&](std::array<int, 2> g) {
      std::uint64_t bits = 0;
      const double v = r.at(g);
      std::memcpy(&bits, &v, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    });
    local[static_cast<std::size_t>(ctx.rank())] = h;
  });
  *digests = std::move(local);
  return measure(m);
}

// --- all_gather, hybrid tree path inside sqrt(P) groups ------------------

RunStats run_all_gather_tree(int nprocs) {
  Machine m(nprocs, scaling_config());
  m.run([&](Context& ctx) {
    const int g = group_side(ctx.nprocs());
    const ProcView grp = ProcView::grid1(g, ctx.rank() - ctx.rank() % g);
    const double mine = static_cast<double>(ctx.rank());
    // 8-byte contribution: far under allgather_tree_max_bytes, so the
    // hybrid rides the gather+broadcast tree — O(g) messages per group.
    const auto all = all_gather(ctx, grp, std::span<const double>(&mine, 1));
    KALI_CHECK(static_cast<int>(all.size()) == g, "bad all_gather");
  });
  return measure(m);
}

// ---------------------------------------------------------------------------

struct SweepPoint {
  int nprocs = 0;
  RunStats transpose;
  double transpose_predicted = 0.0;
  RunStats halo;
  std::uint64_t halo_expected_msgs = 0;
  RunStats ag_tree;
  std::uint64_t ag_dense_msgs = 0;
  double ag_dense_predicted = 0.0;
  RunStats overlap_halo;           ///< split-phase (exchange_halo_begin)
  RunStats overlap_halo_blocking;  ///< the blocking oracle (blocking_halo)
};

SweepPoint run_point(int nprocs) {
  SweepPoint pt;
  pt.nprocs = nprocs;
  pt.transpose = run_transpose(nprocs);
  pt.transpose_predicted = predicted_transpose(nprocs);
  pt.halo = run_corner_halo(nprocs);
  pt.halo_expected_msgs = expected_halo_msgs(nprocs);
  pt.ag_tree = run_all_gather_tree(nprocs);
  const int g = group_side(nprocs);
  pt.ag_dense_msgs = static_cast<std::uint64_t>(nprocs) *
                     static_cast<std::uint64_t>(g - 1);
  pt.ag_dense_predicted =
      Predictor(scaling_config(), g)
          .all_gather(g, 8.0, LinkContention::kNone);

  // Validation gates (the bench fails loudly rather than record garbage).
  const double tr = pt.transpose.seconds / pt.transpose_predicted;
  KALI_CHECK(tr > 1.0 - 1e-9 && tr < 1.0 + 1e-9,
             "transpose makespan diverged from the lockstep closed form");
  KALI_CHECK(pt.halo.msgs == pt.halo_expected_msgs,
             "corner-halo message count diverged from the closed form");
  KALI_CHECK(pt.ag_tree.msgs <= std::uint64_t{8} * static_cast<std::uint64_t>(nprocs),
             "tree all_gather lost its O(P) message bound");
  // The tree path's contract (collectives.hpp): an O(P) message count —
  // the dense exchange's quadratic count is what melts the network at
  // these populations — bought with a bounded constant-factor makespan
  // premium over the dense closed form (the tree pays per-level latency
  // serially; the pipelined dense exchange amortizes it).  Sweep-observed
  // premium is ~2-3x; gate at 5x so a regression to a serialized or
  // quadratic tree still fails loudly.
  KALI_CHECK(pt.ag_tree.seconds < 5.0 * pt.ag_dense_predicted,
             "tree all_gather makespan premium exceeded 5x the dense "
             "closed form");

  // Split-phase halo: the overlapped run must be bit-identical to the
  // blocking oracle (per-rank digests), must actually hide wire time
  // (overlap_ratio > 0 — the CI smoke step's assertion at P=1024), and
  // must never be slower: the interior stencil rides inside the wire
  // window, so the split makespan is bounded by the blocking one.
  std::vector<std::uint64_t> dig_on;
  std::vector<std::uint64_t> dig_off;
  pt.overlap_halo = run_overlap_halo(nprocs, /*split=*/true, &dig_on);
  pt.overlap_halo_blocking =
      run_overlap_halo(nprocs, /*split=*/false, &dig_off);
  KALI_CHECK(dig_on == dig_off,
             "split-phase halo diverged from the blocking oracle");
  KALI_CHECK(pt.overlap_halo.overlap_ratio > 0.0,
             "split-phase halo hid no wire time (overlap_ratio == 0)");
  KALI_CHECK(pt.overlap_halo_blocking.overlap_ratio == 0.0,
             "blocking halo recorded overlap it cannot have");
  KALI_CHECK(pt.overlap_halo.seconds <=
                 pt.overlap_halo_blocking.seconds * (1.0 + 1e-9),
             "split-phase halo ran slower than the blocking oracle");
  return pt;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

void print_run(std::ostream& os, const char* key, const RunStats& r,
               const char* indent) {
  os << indent << "\"" << key << "\": {\"msgs\": " << r.msgs
     << ", \"wire_bytes\": " << r.bytes
     << ", \"modeled_seconds\": " << r.seconds
     << ", \"overlap_ratio\": " << r.overlap_ratio << "}";
}

void print_json(const std::vector<SweepPoint>& sweep, std::ostream& os) {
  os << "{\n"
     << "  \"bench\": \"bench_scaling\",\n"
     << "  \"machine_model\": \"1989-hypercube (10 MFLOPS, ~100us latency, "
        "2.5 MB/s links)\",\n"
     << "  \"contention\": \"none (the Predictor-exact alpha/beta tier)\",\n"
     << "  \"execution\": \"cooperative fiber scheduler, one fiber per "
        "rank (machine/scheduler.hpp)\",\n"
     << "  \"patterns\": {\n"
     << "    \"transpose\": \"lockstep pairwise exchange in sqrt(P) groups, "
        "256 B per ordered pair; predicted_seconds is "
        "Predictor::all_to_all_lockstep\",\n"
     << "    \"corner_halo\": \"8-neighbor halo on a sqrt(P)^2 mesh, 4x4 "
        "interior per rank, HaloCorners::kYes; expected_msgs is the "
        "grid closed form\",\n"
     << "    \"all_gather_tree\": \"8 B contributions in sqrt(P) groups on "
        "the hybrid's tree path; dense_* are the pairwise-exchange "
        "equivalents it replaces\",\n"
     << "    \"overlap_halo\": \"face-mode split-phase halo "
        "(exchange_halo_begin) with the interior 5-point stencil between "
        "post and wait; overlap_ratio is hidden/total in-flight wire time "
        "and the _blocking run is the bit-identical oracle\"\n"
     << "  },\n"
     << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& pt = sweep[i];
    os << "    {\"nprocs\": " << pt.nprocs << ",\n";
    print_run(os, "transpose", pt.transpose, "     ");
    os << ",\n     \"transpose_predicted_seconds\": " << pt.transpose_predicted
       << ", \"transpose_sim_over_predicted\": "
       << ratio(pt.transpose.seconds, pt.transpose_predicted) << ",\n";
    print_run(os, "corner_halo", pt.halo, "     ");
    os << ",\n     \"corner_halo_expected_msgs\": " << pt.halo_expected_msgs
       << ",\n";
    print_run(os, "all_gather_tree", pt.ag_tree, "     ");
    os << ",\n     \"all_gather_dense_msgs\": " << pt.ag_dense_msgs
       << ", \"all_gather_dense_predicted_seconds\": " << pt.ag_dense_predicted
       << ", \"tree_msg_saving\": "
       << ratio(static_cast<double>(pt.ag_dense_msgs),
                static_cast<double>(pt.ag_tree.msgs))
       << ",\n";
    print_run(os, "overlap_halo", pt.overlap_halo, "     ");
    os << ",\n";
    print_run(os, "overlap_halo_blocking", pt.overlap_halo_blocking, "     ");
    os << ",\n     \"overlap_halo_speedup\": "
       << ratio(pt.overlap_halo_blocking.seconds, pt.overlap_halo.seconds)
       << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace
}  // namespace kali

int main(int argc, char** argv) {
  using namespace kali;
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_scaling [--smoke] [--json]\n";
      return 2;
    }
  }

  std::vector<int> populations{1024};
  if (!smoke) {
    populations = {1024, 4096, 16384, 65536};
  }
  std::vector<SweepPoint> sweep;
  sweep.reserve(populations.size());
  for (const int p : populations) {
    sweep.push_back(run_point(p));
  }

  if (json) {
    print_json(sweep, std::cout);
    return 0;
  }

  bench::header("E12", "Scaling sweeps on the fiber-scheduled machine",
                "P = 1k..64k rank populations; Predictor closed-form "
                "validation at every point");
  Table t({"P", "transpose msgs", "transpose s (sim/pred)", "halo msgs",
           "halo s", "ag tree msgs (dense)", "ag s (dense pred)",
           "overlap ratio (speedup)"});
  for (const SweepPoint& pt : sweep) {
    t.add_row({std::to_string(pt.nprocs), std::to_string(pt.transpose.msgs),
               fmt(pt.transpose.seconds) + " (" +
                   fmt(ratio(pt.transpose.seconds, pt.transpose_predicted), 6) +
                   ")",
               std::to_string(pt.halo.msgs), fmt(pt.halo.seconds),
               std::to_string(pt.ag_tree.msgs) + " (" +
                   std::to_string(pt.ag_dense_msgs) + ")",
               fmt(pt.ag_tree.seconds) + " (" + fmt(pt.ag_dense_predicted) +
                   ")",
               fmt(pt.overlap_halo.overlap_ratio) + " (" +
                   fmt(ratio(pt.overlap_halo_blocking.seconds,
                             pt.overlap_halo.seconds),
                       6) +
                   ")"});
  }
  t.print(std::cout);
  std::cout << "\nevery point is gate-checked: the transpose makespan must "
               "match the lockstep\nclosed form, the halo message count its "
               "grid formula, the tree all_gather\nmust stay O(P) messages "
               "within 5x of the dense closed form's makespan, and\nthe "
               "split-phase halo must be bit-identical to its blocking "
               "oracle while\nhiding a nonzero fraction of wire time.\n";
  return 0;
}
