// Aggregated machine statistics, collected after a run.
#pragma once

#include <map>
#include <vector>

#include "machine/processor.hpp"

namespace kali {

struct MachineStats {
  std::vector<ProcCounters> per_proc;
  std::vector<double> clocks;  ///< final simulated clock per processor
  /// Peak queued-message count of each processor's mailbox.  Unlike every
  /// other field this reflects host interleaving, not simulated time —
  /// assert bounds on it, never exact values.
  std::vector<std::size_t> mailbox_peaks;

  /// Simulated makespan: the slowest processor's clock.
  [[nodiscard]] double max_clock() const;

  /// Totals across processors.
  [[nodiscard]] ProcCounters totals() const;

  /// Fraction of (nprocs * makespan) spent in modeled computation.
  /// This is the "how busy are the processors" number behind Figure 3/5
  /// and the pipelining discussion in sections 3-4 of the paper.
  [[nodiscard]] double compute_utilization() const;

  /// Messages any rank sent to itself on `tag`, summed over processors.
  /// The runtime's redistribute/remap layers must keep this at zero on
  /// their reserved tags (a self-message pays full messaging cost for data
  /// the rank already owns).
  [[nodiscard]] std::uint64_t self_msgs(int tag) const;

  /// Self-messages across all tags.
  [[nodiscard]] std::uint64_t self_msgs_total() const;

  /// Messages sent on `tag`, summed over processors (matched-send ledger).
  [[nodiscard]] std::uint64_t sent_msgs(int tag) const;

  /// Messages received on `tag`, summed over processors.
  [[nodiscard]] std::uint64_t recv_msgs(int tag) const;

  /// Per-tag send/recv imbalance: tag -> (sent - received), only tags with
  /// a nonzero difference.  After a drained run every entry is a leaked
  /// (sent-but-never-received) message — or, negative, a receive of a
  /// message from a previous accounting era (impossible within one run).
  [[nodiscard]] std::map<int, std::int64_t> unmatched_by_tag() const;

  /// Total simulated time messages spent queued on busy node ports
  /// (LinkContention::kPorts); zero when contention is off.
  [[nodiscard]] double link_wait_time() const;

  /// Total simulated time messages spent queued on busy topology edges
  /// (LinkContention::kStoreForward); zero in the other tiers.
  [[nodiscard]] double edge_wait_time() const;

  /// Busy-port/edge encounters across all messages.
  [[nodiscard]] std::uint64_t contended_msgs() const;

  /// Total begin-to-arrival window time of split-phase receives, summed
  /// over processors; zero for purely blocking runs (see
  /// ProcCounters::overlap_wire_time).
  [[nodiscard]] double overlap_wire_time() const;

  /// The portion of overlap_wire_time the receivers spent on other work
  /// instead of idling — wire time actually hidden behind local progress.
  [[nodiscard]] double overlap_hidden_time() const;

  /// overlap_hidden_time / overlap_wire_time: the fraction of in-flight
  /// wire time hidden behind compute (0 when no split-phase receives ran).
  /// The per-case column BENCH_scaling.json records.
  [[nodiscard]] double overlap_ratio() const;

  /// Heaviest store-and-forward load on any single directed topology edge:
  /// the message count of the busiest edge, merged across processors.
  /// Zero unless the store-and-forward tier ran.
  [[nodiscard]] std::uint64_t max_edge_load() const;

  /// Largest mailbox_peaks entry: the worst in-flight buffering any
  /// processor needed.  Host-interleaving dependent (see mailbox_peaks).
  [[nodiscard]] std::size_t max_mailbox_depth() const;
};

}  // namespace kali
