// Sample harness of the kali benchmark.
//
// A workload sample builds a fresh Machine, lets every rank allocate and
// fill its arrays, and times one collective phase on both clocks:
//
//   modeled — the PhaseTimer makespan (simulated seconds, deterministic);
//   host    — rank 0's steady_clock across the same phase (what the
//             simulator costs on this host).
//
// Everything here drives kali through its public entry points only
// (Machine, Context, PhaseTimer, ProcCounters, MachineStats and the
// solver / kernel / runtime calls), so the library can change under it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "machine/context.hpp"

namespace kali::bench {

using HostClock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(HostClock::time_point t0);

/// Seeded input perturbation in [-1, 1): a pure function of (seed, index),
/// so host-side oracles can regenerate any input element.
[[nodiscard]] double noise(std::uint64_t seed, int i, int j, int k = 0);

/// Verdict of one sample's correctness check.
struct Check {
  bool ok = true;
  /// Final / initial residual (or round-trip error) when the check measured
  /// one; negative when it did not.
  double residual_ratio = -1.0;
  std::string why;  ///< first failure, for the log

  void fail(const std::string& reason) {
    if (ok) {
      why = reason;
    }
    ok = false;
  }
  void merge(const Check& o) {
    if (!o.ok) {
      fail(o.why);
    }
    if (o.residual_ratio >= 0.0) {
      residual_ratio = o.residual_ratio;
    }
  }
};

/// One workload-level public call as seen by one rank.
struct Span {
  const char* name = "";
  double t0 = 0.0;         ///< modeled clock at entry
  double t1 = 0.0;         ///< modeled clock at exit
  std::uint64_t msgs = 0;  ///< messages this rank sent inside the call
  double host_s = 0.0;     ///< host seconds across the call (rank 0 only)
};

/// Span recorder.  Each rank appends to its own vector only (one writer
/// each), and the vectors are read after Machine::run returns, so recording
/// needs no lock and sends no message.  Off, a span is a plain call.
class Tracer {
 public:
  Tracer(int nprocs, bool on)
      : on_(on), spans_(on ? static_cast<std::size_t>(nprocs) : 0) {}

  template <class Fn>
  void span(Context& ctx, const char* name, Fn&& fn) {
    if (!on_) {
      fn();
      return;
    }
    Span s;
    s.name = name;
    s.t0 = ctx.clock();
    const std::uint64_t m0 = ctx.proc().counters().msgs_sent;
    const auto h0 = HostClock::now();
    fn();
    if (ctx.rank() == 0) {
      s.host_s = seconds_since(h0);
    }
    s.t1 = ctx.clock();
    s.msgs = ctx.proc().counters().msgs_sent - m0;
    spans_[static_cast<std::size_t>(ctx.rank())].push_back(s);
  }

  [[nodiscard]] std::vector<std::vector<Span>>& per_rank() { return spans_; }

 private:
  bool on_;
  std::vector<std::vector<Span>> spans_;
};

/// One rank's part of one sample, built inside Machine::run.
struct RankPhase {
  std::function<void(Tracer&)> solve;  ///< the timed phase (collective)
  std::function<Check()> verify;       ///< after the phase (collective)
};

/// One layer's public function, called on the workload's own shapes.
struct Probe {
  const char* name;
  /// Collective: builds the shapes, returns the call to time.
  std::function<std::function<void()>(Context&)> build;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual int nprocs() const = 0;
  /// The default MachineConfig plus this workload's topology and
  /// contention tier; nothing else.
  [[nodiscard]] virtual MachineConfig config() const = 0;

  /// Collective: allocate and fill this rank's arrays (the set-up that
  /// setup_s measures).  The warm-up sample may run extra checks.
  virtual RankPhase build(Context& ctx, bool warmup) = 0;

  /// Host-side checks after Machine::run (sequential oracles).
  virtual Check host_check(bool /*warmup*/) { return {}; }

  [[nodiscard]] virtual std::vector<Probe> probes() = 0;

  /// |Predictor closed form - simulated| / simulated, from the sample's
  /// modeled_s and the probes' modeled seconds per call.
  [[nodiscard]] virtual double predictor_rel_err(
      double modeled_s, const std::map<std::string, double>& probe_s) const = 0;
};

struct SampleMode {
  bool warmup = false;
  bool traced = false;
  bool deadlock_detection = true;
};

struct Sample {
  double modeled_s = 0.0;
  double host_s = 0.0;
  double setup_s = 0.0;
  /// Counter deltas over the PhaseTimer window, summed over ranks.
  ProcCounters phase;
  std::size_t mailbox_peak = 0;
  Check check;
  std::vector<std::vector<Span>> spans;  ///< per rank, traced samples only
};

/// Run one sample of `w` on a fresh Machine with `workers` host threads.
[[nodiscard]] Sample run_sample(Workload& w, int workers, const SampleMode& mode);

/// Set-up only: the host seconds a sample spends before its timed phase
/// (Machine construction, allocation and fill, the PhaseTimer barrier).
[[nodiscard]] double run_setup(Workload& w, int workers);

struct ProbeResult {
  std::string name;
  int calls = 0;
  double modeled_s = 0.0;  ///< per call
  double host_s = 0.0;     ///< per call
  double msgs = 0.0;       ///< per call, summed over ranks
};

/// Time `reps` back-to-back calls of `p` on a fresh Machine.
[[nodiscard]] ProbeResult run_probe(Workload& w, int workers, const Probe& p,
                                    int reps);

}  // namespace kali::bench
