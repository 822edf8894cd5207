// Per-processor state: mailbox, simulated clock, link-port clocks, the
// store-and-forward edge state, and activity counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "machine/mailbox.hpp"
#include "support/check.hpp"

namespace kali {

/// Activity counters, all in simulated seconds unless noted.
struct ProcCounters {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
  double flops = 0.0;
  double compute_time = 0.0;   ///< time spent in modeled computation
  double overhead_time = 0.0;  ///< send/recv per-message software overhead
  double wait_time = 0.0;      ///< idle time waiting for message arrival
  double link_wait_time = 0.0;       ///< time messages queued on busy ports
  double edge_wait_time = 0.0;       ///< time queued on busy topology edges
  std::uint64_t contended_msgs = 0;  ///< busy-port/edge encounters

  /// Communication/computation overlap ledger, filled only by the batched
  /// receive that finishes a split-phase exchange (Context::recv_batch).
  /// For each such receive the in-flight window is the modeled time from
  /// the exchange's start to the message's arrival; `overlap_wire_time`
  /// accumulates the windows and `overlap_hidden_time` the portion of each
  /// window this rank spent doing other work (compute, sends, earlier
  /// receives of the batch) instead of idling — i.e. wire time actually
  /// hidden behind local progress.  Blocking receives leave both at zero,
  /// so overlap_hidden / overlap_wire is the overlap_ratio the scaling
  /// bench records (BENCH_scaling.json).
  double overlap_hidden_time = 0.0;  ///< in-flight wire time hidden by work
  double overlap_wire_time = 0.0;    ///< total begin-to-arrival window time

  /// Matched send/recv ledgers, by tag: how many messages this rank sent on
  /// each tag, and how many it received.  Summed machine-wide
  /// (MachineStats::sent_msgs / recv_msgs / unmatched_by_tag) the two must
  /// balance per tag once a phase drains — the "LeakSanitizer for
  /// messages" the sync_clocks and teardown leak checks enforce, and the
  /// ground truth tests use to prove a message-dropping optimization
  /// dropped only messages nobody would have received.
  std::map<int, std::uint64_t> sent_by_tag;
  std::map<int, std::uint64_t> recv_by_tag;

  /// Messages this rank sent to itself, by tag.  A self-message still pays
  /// send/recv overhead plus wire latency in the cost model, so runtime
  /// layers must copy locally instead; this map is how tests assert they do
  /// (see MachineStats::self_msgs).
  std::map<int, std::uint64_t> self_msgs_by_tag;

  /// Store-and-forward edge loads: messages this processor resolved onto
  /// each directed topology edge (edge_id from topology.hpp).  The sender
  /// accounts the injection edge and the receiver every later hop, so each
  /// message/edge transit is counted exactly once machine-wide; summed in
  /// MachineStats and surfaced as max_edge_load().
  std::map<std::int64_t, std::uint64_t> edge_msgs;

  ProcCounters& operator+=(const ProcCounters& o) {
    msgs_sent += o.msgs_sent;
    bytes_sent += o.bytes_sent;
    msgs_recv += o.msgs_recv;
    bytes_recv += o.bytes_recv;
    flops += o.flops;
    compute_time += o.compute_time;
    overhead_time += o.overhead_time;
    wait_time += o.wait_time;
    link_wait_time += o.link_wait_time;
    edge_wait_time += o.edge_wait_time;
    contended_msgs += o.contended_msgs;
    overlap_hidden_time += o.overlap_hidden_time;
    overlap_wire_time += o.overlap_wire_time;
    for (const auto& [tag, n] : o.sent_by_tag) {
      sent_by_tag[tag] += n;
    }
    for (const auto& [tag, n] : o.recv_by_tag) {
      recv_by_tag[tag] += n;
    }
    for (const auto& [tag, n] : o.self_msgs_by_tag) {
      self_msgs_by_tag[tag] += n;
    }
    for (const auto& [edge, n] : o.edge_msgs) {
      edge_msgs[edge] += n;
    }
    return *this;
  }
};

/// One store-and-forward reservation of a directed edge, recorded in the
/// resolving processor's per-edge ledger.  Entries are totally ordered by
/// the key (send_time, src, seq) — the canonical serialization order, which
/// unlike arrival order is a pure function of the simulated program.
struct EdgeReservation {
  double send_time = 0.0;  ///< network-entry time of the message (key major)
  int src = -1;            ///< sending rank (key tiebreak)
  std::uint64_t seq = 0;   ///< sender-local message number (key minor)
  double finish = 0.0;     ///< when the message clears the edge
  /// Running max of `finish` over this and every smaller-key entry, so a
  /// new reservation reads its queueing bound in O(log n) instead of
  /// rescanning the prefix.
  double prefix_max = 0.0;

  [[nodiscard]] bool key_less(double t, int s, std::uint64_t q) const {
    if (send_time != t) {
      return send_time < t;
    }
    if (src != s) {
      return src < s;
    }
    return seq < q;
  }
};

/// One virtual processor.  Owned by Machine; user code touches it only
/// through Context.  Not copyable (it holds a live mailbox).
class Processor {
 public:
  explicit Processor(int rank) : rank_(rank) {}
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] double clock() const { return clock_; }
  void set_clock(double t) {
    KALI_INVARIANT(t >= clock_,
                   "processor clock moved backwards within a phase");
    clock_ = t;
  }

  /// Set the clock without the monotonicity guard.  The one sanctioned
  /// backwards move: sync_clocks aligns every member to the maximum of
  /// the clocks *at barrier entry*, excluding the barrier's own allreduce
  /// traffic from the measurement — which may pull this member's clock
  /// back below where that traffic advanced it.  Everything else must go
  /// through set_clock.
  void realign_clock(double t) { clock_ = t; }

  // Busy-until clocks of the two directed links attaching this node to the
  // network (LinkContention::kPorts).  The injection link is advanced by
  // this processor's own sends, the ejection link as it processes receives
  // — both only ever touched by the owning rank's fiber, which keeps
  // contention resolution deterministic.  Within a phase the busy-until times only
  // ever advance (clear_link_state resets them at barriers); a backwards
  // move would let a later message overtake an earlier one on the port.
  [[nodiscard]] double out_link_free() const { return out_link_free_; }
  void set_out_link_free(double t) {
    KALI_INVARIANT(t >= out_link_free_,
                   "injection-port clock moved backwards within a phase");
    out_link_free_ = t;
  }
  [[nodiscard]] double in_link_free() const { return in_link_free_; }
  void set_in_link_free(double t) {
    KALI_INVARIANT(t >= in_link_free_,
                   "ejection-port clock moved backwards within a phase");
    in_link_free_ = t;
  }

  // Count of sync_clocks barriers this processor has passed.  Messages are
  // stamped with the sender's epoch; the KALI_CHECK_INVARIANTS build
  // rejects receives whose stamp differs from the receiver's epoch (the
  // message straddled a barrier, carrying a pre-barrier timestamp into the
  // next measured phase — see Message::epoch).
  [[nodiscard]] std::uint32_t barrier_epoch() const { return barrier_epoch_; }
  void bump_barrier_epoch() { ++barrier_epoch_; }

  // --- store-and-forward state (LinkContention::kStoreForward) -----------
  //
  // Interior edge clocks are conceptually shared between all messages whose
  // routes cross them, but execution contexts may not share mutable clock
  // state without making contention resolution a host-scheduling race.  The
  // model therefore shards every edge resource by the rank that resolves it:
  //
  //  * out_edge_free_ — busy-until clocks of this node's outgoing neighbor
  //    links, advanced at *send* time by the owning fiber only.  Messages
  //    from one sender serialize on each first-hop edge they share.
  //
  //  * edge_ledger_ — reservations for every later hop of every message
  //    this processor *receives*, resolved at receive time from the
  //    message's route.  Messages converging on one receiver queue on the
  //    interior edges they share (tree saturation toward a hot node);
  //    messages to different receivers use independent ledger copies of an
  //    edge — the deterministic approximation that keeps ranks race-free.
  //
  // Within a ledger, entries are kept sorted by (send_time, src, seq) and
  // a message queues only behind smaller-key reservations, so it never
  // waits for canonically *later* traffic whatever order this receiver
  // posts its receives in.  Receive order still bounds what is visible:
  // only messages this receiver has already resolved are in the ledger,
  // so when a canonically earlier message happens to be resolved second,
  // the pair simply does not contend.  Both directions are deterministic —
  // program order, never host scheduling, decides.
  //
  // A ledger holds one entry per interior-edge resolution since the last
  // sync_clocks, whose clear_link_state empties it: its memory is bounded
  // by the phase's traffic, not by the run's.
  [[nodiscard]] std::map<std::int64_t, double>& out_edge_free() {
    return out_edge_free_;
  }
  [[nodiscard]] std::map<std::int64_t, std::vector<EdgeReservation>>&
  edge_ledger() {
    return edge_ledger_;
  }

  /// Reserve `edge` in this processor's ledger for a message keyed
  /// (send_time, src, seq) that can reach the edge at `t_in` and occupies
  /// it for `wire` seconds.  Returns the queueing delay (start - t_in).
  /// Keys mostly arrive in increasing order (receives follow the schedule),
  /// so the sorted-insert append path makes this O(log n) lookup + O(1)
  /// amortized maintenance; an out-of-order insert rebuilds the prefix
  /// maxima of the tail it displaces.
  double reserve_edge(std::int64_t edge, double send_time, int src,
                      std::uint64_t seq, double t_in, double wire) {
    std::vector<EdgeReservation>& ledger = edge_ledger_[edge];
    auto pos = std::lower_bound(
        ledger.begin(), ledger.end(), 0,
        [&](const EdgeReservation& e, int) {
          return e.key_less(send_time, src, seq);
        });
    // The ledger's total order is only total if keys never repeat: one
    // reservation per (send_time, src, seq) per edge.  A duplicate means a
    // message was resolved twice (or two messages share a sender sequence
    // number) — either way the serialization order is no longer a pure
    // function of the program.
    KALI_INVARIANT(pos == ledger.end() || pos->send_time != send_time ||
                       pos->src != src || pos->seq != seq,
                   "edge ledger key (send_time, src, seq) not strictly "
                   "ordered: duplicate reservation");
    const double busy_until =
        pos == ledger.begin() ? 0.0 : std::prev(pos)->prefix_max;
    const double start = std::max(t_in, busy_until);
    pos = ledger.insert(pos, {send_time, src, seq, start + wire, 0.0});
    double run = busy_until;
    for (auto it = pos; it != ledger.end(); ++it) {
      run = std::max(run, it->finish);
      it->prefix_max = run;
    }
    return start - t_in;
  }

  /// Forget all link/edge occupancy — the barrier semantics of
  /// sync_clocks: traffic before (and of) the barrier must not leak busy
  /// time into the next measured phase.  Clocks restart at zero, not at
  /// the barrier time: post-barrier events all happen later anyway
  /// (equivalent), while a message still in flight *across* the barrier
  /// must not be charged phantom queueing against a port nothing else
  /// ever used.
  void clear_link_state() {
    out_link_free_ = 0.0;
    in_link_free_ = 0.0;
    out_edge_free_.clear();
    edge_ledger_.clear();
  }

  Mailbox& mailbox() { return mailbox_; }
  ProcCounters& counters() { return counters_; }
  [[nodiscard]] const ProcCounters& counters() const { return counters_; }

  void reset() {
    clock_ = 0.0;
    clear_link_state();
    counters_ = ProcCounters{};
    barrier_epoch_ = 0;
    mailbox_.reset_peak();
  }

 private:
  int rank_;
  std::uint32_t barrier_epoch_ = 0;  // sync_clocks count (own fiber only)
  double clock_ = 0.0;  // simulated seconds; touched only by its own fiber
  double out_link_free_ = 0.0;  // injection link busy-until (own fiber only)
  double in_link_free_ = 0.0;   // ejection link busy-until (own fiber only)
  std::map<std::int64_t, double> out_edge_free_;  // own fiber only
  std::map<std::int64_t, std::vector<EdgeReservation>> edge_ledger_;  // ditto
  ProcCounters counters_;
  Mailbox mailbox_;
};

}  // namespace kali
