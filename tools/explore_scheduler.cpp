// Systematic scheduler-interleaving explorer: the mechanized form of the
// runtime's determinism contract (scheduler.hpp).
//
// The contract says results — clocks, counters, message traces — are
// bit-identical for ANY host interleaving, because all simulated state is
// rank-sharded and every cross-rank effect flows through an ordered
// synchronization event.  Ordinary test runs only ever witness the
// interleavings the host happens to produce; this tool instead *drives*
// the dispatch decisions through a SchedulerHook (MachineConfig::sim_hook)
// and enumerates every reachable dispatch sequence of a set of small
// communication programs (P <= 4) on a single worker, asserting a
// bit-identical result digest (hexfloat clocks + counters + serialized
// message trace) across all of them.
//
// Enumeration is depth-first over choice prefixes: run once picking ready
// index 0 everywhere, then for every step where more than one fiber was
// runnable, branch into each alternative by replaying the executed choice
// prefix and deviating at that step.  Sleep sets [Godefroid] prune
// schedules that only permute dispatches of ranks with no static
// communication dependence (rank-level dependence: message peers, or
// everything for the seeded race) — the DPOR-style reduction that
// keeps the ring program's schedule count tractable without losing
// coverage of any conflicting pair's orderings.
//
// --seed-bug plants a determinism race (rank 1 pokes rank 0's simulated
// clock behind the model's back) and inverts the assertion: the explorer
// must find schedules with divergent digests, and the happens-before log
// of the run (--hb FILE, analyzed by tools/check_hb.py) must flag the
// poke as an unordered foreign write.  scripts/check_hb.sh wires both
// into CI; the explore_smoke ctest entry runs `--smoke`.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/scheduler.hpp"

namespace {

using namespace kali;

// --- replay hook -----------------------------------------------------------

/// Replays a fixed choice prefix, then falls back to FIFO (index 0), and
/// records every dispatch decision: the enabled set (ready ranks) and the
/// index chosen.  Single-worker runs only — one decision stream.
class ReplayHook final : public SchedulerHook {
 public:
  struct Step {
    std::vector<int> enabled;  ///< runnable ranks, FIFO order
    std::size_t chosen = 0;    ///< index dispatched
  };

  void arm(std::vector<std::size_t> prefix) {
    prefix_ = std::move(prefix);
    steps_.clear();
    infidelity_ = false;
  }

  std::size_t pick_next(const std::vector<int>& ready) override {
    std::size_t pick = 0;
    if (steps_.size() < prefix_.size()) {
      pick = prefix_[steps_.size()];
      if (pick >= ready.size()) {
        // A faithful replay re-encounters the same enabled sets; running
        // off the end means the execution diverged from the parent run.
        infidelity_ = true;
        pick = 0;
      }
    }
    steps_.push_back(Step{ready, pick});
    return pick;
  }

  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }
  [[nodiscard]] bool infidelity() const { return infidelity_; }

 private:
  std::vector<std::size_t> prefix_;
  std::vector<Step> steps_;
  bool infidelity_ = false;
};

// --- result digest ---------------------------------------------------------

/// Everything the determinism contract promises, serialized exactly.
/// Doubles print as hexfloat so bit-level drift can't hide in rounding;
/// mailbox_peaks is deliberately excluded (documented host-interleaving
/// diagnostic, stats.hpp).
std::string digest_of(const MachineStats& st, const EventLog& log) {
  std::ostringstream os;
  os << std::hexfloat;
  for (double c : st.clocks) {
    os << "clock " << c << '\n';
  }
  int rank = 0;
  for (const ProcCounters& pc : st.per_proc) {
    os << "ctr " << rank++ << ' ' << pc.msgs_sent << ' ' << pc.bytes_sent
       << ' ' << pc.msgs_recv << ' ' << pc.bytes_recv << ' ' << pc.flops
       << ' ' << pc.compute_time << ' ' << pc.overhead_time << ' '
       << pc.wait_time << ' ' << pc.link_wait_time << ' '
       << pc.edge_wait_time << ' ' << pc.contended_msgs << '\n';
    for (const auto& [tag, n] : pc.sent_by_tag) {
      os << "  sent " << tag << ' ' << n << '\n';
    }
    for (const auto& [tag, n] : pc.recv_by_tag) {
      os << "  recv " << tag << ' ' << n << '\n';
    }
    for (const auto& [edge, n] : pc.edge_msgs) {
      os << "  edge " << edge << ' ' << n << '\n';
    }
  }
  log.write_trace(os);
  return os.str();
}

// --- micro-programs --------------------------------------------------------

struct Program {
  std::string name;
  int nprocs = 2;
  MachineConfig cfg;  ///< sim_workers/sim_hook overwritten by the runner
  std::function<void(Context&)> body;
  /// Static rank-level dependence for sleep-set pruning: communicating
  /// pairs, or all-dependent when the program touches state outside the
  /// message protocol (the seeded race).
  bool all_dependent = false;
  std::vector<std::pair<int, int>> peers;
};

constexpr int kTagA = 1;  // user band: free-form (message.hpp)
constexpr int kTagB = 2;

std::vector<Program> make_programs() {
  std::vector<Program> out;

  {
    Program p;
    p.name = "pairwise-exchange";
    p.nprocs = 2;
    p.peers = {{0, 1}};
    p.body = [](Context& ctx) {
      const int other = 1 - ctx.rank();
      ctx.compute(500.0 * (ctx.rank() + 1));
      ctx.send(other, kTagA, ctx.clock());
      const double peer_clock = ctx.recv<double>(other, kTagA);
      ctx.compute(100.0 + peer_clock);
    };
    out.push_back(std::move(p));
  }

  {
    Program p;
    p.name = "ring-halo";
    p.nprocs = 4;
    p.cfg.topology = Topology::kRing;
    p.cfg.link_contention = LinkContention::kPorts;
    p.peers = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
    p.body = [](Context& ctx) {
      const int n = ctx.nprocs();
      const int left = (ctx.rank() + n - 1) % n;
      const int right = (ctx.rank() + 1) % n;
      ctx.compute(200.0 * (ctx.rank() + 1));
      ctx.send(right, kTagA, static_cast<double>(ctx.rank()));
      ctx.send(left, kTagB, static_cast<double>(ctx.rank()) + 0.5);
      const double from_left = ctx.recv<double>(left, kTagA);
      const double from_right = ctx.recv<double>(right, kTagB);
      ctx.compute(10.0 * (from_left + from_right));
    };
    out.push_back(std::move(p));
  }

  {
    Program p;
    p.name = "tree-all-gather";
    p.nprocs = 4;
    // The small payload stays under allgather_tree_max_bytes, so this
    // rides the binary-tree gather+broadcast path (collectives.hpp); the
    // size-agreement allreduce uses the same tree edges.
    p.peers = {{0, 1}, {0, 2}, {1, 3}};
    p.body = [](Context& ctx) {
      std::vector<int> ranks(static_cast<std::size_t>(ctx.nprocs()));
      for (int i = 0; i < ctx.nprocs(); ++i) {
        ranks[static_cast<std::size_t>(i)] = i;
      }
      Group g(ranks, ctx.rank());
      ctx.compute(50.0 * (ctx.rank() + 1));
      const double mine = ctx.clock();
      std::vector<double> all =
          all_gather(ctx, g, std::span<const double>(&mine, 1));
      double sum = 0.0;
      for (double v : all) {
        sum += v;
      }
      ctx.compute(sum);
    };
    out.push_back(std::move(p));
  }

  {
    Program p;
    // Store-and-forward ring: every receive resolves its route's edges
    // against the receiver's ledger, so this enumerates interleavings of
    // ledger resolution.
    p.name = "sf-ring-ledger";
    p.nprocs = 3;
    p.cfg.topology = Topology::kRing;
    p.cfg.link_contention = LinkContention::kStoreForward;
    p.peers = {{0, 1}, {1, 2}, {2, 0}};
    p.body = [](Context& ctx) {
      const int n = ctx.nprocs();
      const int right = (ctx.rank() + 1) % n;
      const int left = (ctx.rank() + n - 1) % n;
      ctx.send(right, kTagA, static_cast<double>(ctx.rank()));
      (void)ctx.recv<double>(left, kTagA);
      ctx.send(left, kTagB, ctx.clock());
      (void)ctx.recv<double>(right, kTagB);
    };
    out.push_back(std::move(p));
  }

  return out;
}

/// The seeded determinism race: rank 1 rewrites rank 0's simulated clock
/// behind the model's back — exactly the class of bug the rank-sharding
/// contract (and the shared-state lint rule) exists to prevent.  Whether
/// the poke lands before or after rank 0's send depends on dispatch
/// order, so digests diverge; and the poke's happens-before record (a
/// manual EventLog::write, standing in for what instrumented runtime code
/// would emit) is unordered against rank 0's own clock writes in every
/// schedule, so tools/check_hb.py flags it too.
Program make_seed_bug_program() {
  Program p;
  p.name = "seed-bug";
  p.nprocs = 2;
  p.all_dependent = true;  // the race is invisible to static peer analysis
  p.body = [](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.compute(1000.0);
      ctx.send(1, kTagA, ctx.clock());
    } else {
      Machine& m = ctx.machine();
      m.proc(0).realign_clock(0.5);  // the bug: non-owner clock write
      if (EventLog* log = m.event_log()) {
        log->write(1, HbObj::kClock, 0);
      }
      (void)ctx.recv<double>(0, kTagA);
    }
  };
  return p;
}

// --- exploration -----------------------------------------------------------

struct RunResult {
  std::vector<ReplayHook::Step> steps;
  std::string digest;
};

/// One run along `prefix`; with `hb_out`, also writes its happens-before
/// log there.
RunResult run_once(const Program& p, const std::vector<std::size_t>& prefix,
                   std::ostream* hb_out) {
  ReplayHook hook;
  hook.arm(prefix);
  MachineConfig cfg = p.cfg;
  cfg.sim_workers = 1;  // one decision stream: the hook sees every dispatch
  cfg.sim_hook = &hook;
  Machine machine(p.nprocs, cfg);
  EventLog log(p.nprocs);
  machine.attach_event_log(&log);
  machine.run(p.body);
  if (hook.infidelity()) {
    throw Error("explore: replay diverged from parent run on program '" +
                p.name + "' — the scheduler is not deterministic");
  }
  if (hb_out != nullptr) {
    log.write_hb(*hb_out);
  }
  return RunResult{hook.steps(), digest_of(machine.stats(), log)};
}

bool ranks_dependent(const Program& p, int a, int b) {
  if (p.all_dependent || a == b) {
    return true;
  }
  for (const auto& [x, y] : p.peers) {
    if ((x == a && y == b) || (x == b && y == a)) {
      return true;
    }
  }
  return false;
}

struct ExploreOutcome {
  std::size_t schedules = 0;   ///< executions performed
  std::size_t divergent = 0;   ///< executions whose digest != baseline
  std::size_t max_steps = 0;   ///< longest dispatch sequence seen
  bool capped = false;         ///< stopped at the schedule budget
  std::string baseline;        ///< digest of the FIFO run
  std::string divergent_example;  ///< first divergent digest (diagnostics)
};

void explore(const Program& p, const std::vector<std::size_t>& prefix,
             const std::set<int>& sleep, bool prune, std::size_t max_schedules,
             ExploreOutcome& out) {
  if (out.schedules >= max_schedules) {
    out.capped = true;
    return;
  }
  RunResult res = run_once(p, prefix, nullptr);
  ++out.schedules;
  out.max_steps = std::max(out.max_steps, res.steps.size());
  if (out.baseline.empty()) {
    out.baseline = res.digest;
  } else if (res.digest != out.baseline) {
    ++out.divergent;
    if (out.divergent_example.empty()) {
      out.divergent_example = res.digest;
    }
  }

  // Walk the executed schedule forward from the first free position,
  // branching into every alternative dispatch.  `live` is the sleep set
  // at the current position; an alternative in it would only commute with
  // dispatches already explored from an earlier sibling subtree.
  std::set<int> live = sleep;
  std::vector<std::size_t> child;
  child.reserve(res.steps.size() + 1);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    child.push_back(res.steps[i].chosen);
  }
  for (std::size_t pos = prefix.size(); pos < res.steps.size(); ++pos) {
    const ReplayHook::Step& st = res.steps[pos];
    const int chosen_rank = st.enabled[st.chosen];
    std::set<int> siblings = live;
    siblings.insert(chosen_rank);  // the default continuation explores it
    for (std::size_t alt = 0; alt < st.enabled.size(); ++alt) {
      if (alt == st.chosen) {
        continue;
      }
      const int y = st.enabled[alt];
      if (prune && live.count(y) != 0) {
        continue;  // commutes with an already-explored sibling subtree
      }
      std::set<int> child_sleep;
      if (prune) {
        for (int u : siblings) {
          if (u != y && !ranks_dependent(p, u, y)) {
            child_sleep.insert(u);
          }
        }
      }
      child.push_back(alt);
      explore(p, child, child_sleep, prune, max_schedules, out);
      child.pop_back();
      if (out.capped) {
        return;
      }
      siblings.insert(y);
    }
    // Advance along the default path: dependent dispatches wake sleepers.
    if (prune) {
      std::set<int> next;
      for (int u : live) {
        if (!ranks_dependent(p, u, chosen_rank)) {
          next.insert(u);
        }
      }
      live = std::move(next);
    }
    child.push_back(st.chosen);
  }
}

// --- driver ----------------------------------------------------------------

int usage() {
  std::cerr
      << "usage: explore_scheduler [options]\n"
         "  --smoke             bounded pass (schedule cap is a soft stop)\n"
         "  --max-schedules N   per-program schedule budget (default 20000;\n"
         "                      exceeding it fails unless --smoke)\n"
         "  --program NAME      run one program (repeatable); default all\n"
         "  --no-prune          disable sleep-set pruning\n"
         "  --seed-bug          run the seeded determinism race instead and\n"
         "                      REQUIRE divergent digests\n"
         "  --hb FILE           write the FIFO run's happens-before log\n"
         "  --list              list programs and exit\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool prune = true;
  bool seed_bug = false;
  std::size_t max_schedules = 20000;
  std::string hb_path;
  std::set<std::string> only;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      max_schedules = std::min<std::size_t>(max_schedules, 64);
    } else if (arg == "--no-prune") {
      prune = false;
    } else if (arg == "--seed-bug") {
      seed_bug = true;
    } else if (arg == "--max-schedules" && i + 1 < argc) {
      max_schedules = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else if (arg == "--program" && i + 1 < argc) {
      only.insert(argv[++i]);
    } else if (arg == "--hb" && i + 1 < argc) {
      hb_path = argv[++i];
    } else if (arg == "--list") {
      for (const Program& p : make_programs()) {
        std::cout << p.name << '\n';
      }
      std::cout << make_seed_bug_program().name << '\n';
      return 0;
    } else {
      return usage();
    }
  }

  std::vector<Program> programs;
  if (seed_bug) {
    programs.push_back(make_seed_bug_program());
    prune = false;  // the race is exactly what static dependence can't see
  } else {
    for (Program& p : make_programs()) {
      if (only.empty() || only.count(p.name) != 0) {
        programs.push_back(std::move(p));
      }
    }
    if (programs.empty()) {
      std::cerr << "explore_scheduler: no such program\n";
      return usage();
    }
  }

  bool failed = false;
  bool hb_written = false;
  for (const Program& p : programs) {
    // The FIFO run doubles as the happens-before specimen for --hb.
    if (!hb_path.empty() && !hb_written) {
      std::ofstream os(hb_path);
      if (!os) {
        std::cerr << "explore_scheduler: cannot open " << hb_path << '\n';
        return 2;
      }
      (void)run_once(p, {}, &os);
      hb_written = true;
    }

    ExploreOutcome out;
    try {
      explore(p, {}, {}, prune, max_schedules, out);
    } catch (const std::exception& e) {
      std::cerr << p.name << ": exploration aborted: " << e.what() << '\n';
      failed = true;
      continue;
    }

    std::cout << p.name << ": " << out.schedules << " schedules (longest "
              << out.max_steps << " dispatches, prune="
              << (prune ? "on" : "off") << ")";
    if (out.capped) {
      std::cout << " [capped at " << max_schedules << "]";
    }
    std::cout << ": " << (out.divergent == 0 ? "all digests identical"
                                             : "DIGESTS DIVERGE")
              << (out.divergent != 0
                      ? " (" + std::to_string(out.divergent) + " of " +
                            std::to_string(out.schedules) + ")"
                      : "")
              << '\n';

    if (seed_bug) {
      if (out.divergent == 0) {
        std::cerr << p.name
                  << ": FAIL: the seeded race produced no divergent "
                     "schedule — the explorer lost its teeth\n";
        failed = true;
      }
    } else {
      if (out.divergent != 0) {
        std::cerr << p.name << ": FAIL: determinism contract violated\n";
        failed = true;
      }
      if (out.capped && !smoke) {
        std::cerr << p.name
                  << ": FAIL: schedule budget exhausted before full "
                     "coverage; raise --max-schedules\n";
        failed = true;
      }
    }
  }
  return failed ? 1 : 0;
}
