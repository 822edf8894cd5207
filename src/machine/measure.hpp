// Collective phase measurement inside SPMD programs.
//
// Machine::reset_stats() may only be used between runs (from the host
// thread).  Inside a program, a phase is measured collectively: clocks are
// aligned at the start (a cost-free "timer barrier"), each member snapshots
// its own counters, and at the end the view-maximum clock and the summed
// counter deltas are reduced.  The measurement traffic itself never
// contaminates the reported interval.
#pragma once

#include <cstdint>

#include "machine/collectives.hpp"

namespace kali {

struct PhaseStats {
  double makespan = 0.0;  ///< simulated seconds, slowest member
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  double flops = 0.0;
  double compute_time = 0.0;  ///< summed over members

  /// Fraction of (members x makespan) spent computing.
  [[nodiscard]] double utilization(int members) const {
    return makespan > 0.0 ? compute_time / (makespan * members) : 0.0;
  }
};

class PhaseTimer {
 public:
  /// Collective over `v`: aligns clocks and snapshots this member's
  /// counters.  All members must construct and finish in lockstep.
  PhaseTimer(Context& ctx, const ProcView& v)
      : ctx_(&ctx), view_(v), start_clock_(sync_clocks(ctx, v)) {
    before_ = ctx.proc().counters();
  }

  /// Collective: returns the phase stats (identical on every member).
  PhaseStats finish() {
    // Snapshot by value first: the measurement collectives below would
    // otherwise count themselves.
    const ProcCounters now = ctx_->proc().counters();
    const double end = allreduce_max(*ctx_, view_, ctx_->clock());
    std::uint64_t counts[2] = {now.msgs_sent - before_.msgs_sent,
                               now.bytes_sent - before_.bytes_sent};
    allreduce(*ctx_, view_, std::span<std::uint64_t>(counts, 2),
              [](std::uint64_t a, std::uint64_t b) { return a + b; });
    double sums[2] = {now.flops - before_.flops,
                      now.compute_time - before_.compute_time};
    allreduce(*ctx_, view_, std::span<double>(sums, 2),
              [](double a, double b) { return a + b; });
    PhaseStats s;
    s.makespan = end - start_clock_;
    s.msgs = counts[0];
    s.bytes = counts[1];
    s.flops = sums[0];
    s.compute_time = sums[1];
    return s;
  }

 private:
  Context* ctx_;
  ProcView view_;
  double start_clock_;
  ProcCounters before_;
};

}  // namespace kali
