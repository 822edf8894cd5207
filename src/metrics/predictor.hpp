// Performance estimation — the tool the paper promises in §2:
//
//   "We plan to address this issue by providing performance estimation
//    tools, which will indicate which parts of a program will compile into
//    efficient executable code, and which will not."
//
// Closed-form first-order models of the runtime's primitives on a given
// MachineConfig.  The models mirror what the cost model charges (flops per
// stencil point, per-message overheads, alpha/beta wire terms), so a
// programmer can compare candidate distributions *before* running, and the
// E11 bench validates predictions against the simulator (target: within a
// few tens of percent — the fidelity the paper's tool would have needed to
// be useful).
#pragma once

#include "machine/config.hpp"

namespace kali {

class Predictor {
 public:
  Predictor(const MachineConfig& cfg, int nprocs)
      : cfg_(cfg), nprocs_(nprocs) {}

  /// End-to-end delivery time of one message of `bytes` over `hops`
  /// (cut-through wire: one byte-time term however many hops).
  [[nodiscard]] double message(double bytes, int hops = 1) const {
    return cfg_.send_overhead + cfg_.latency + cfg_.per_hop * (hops - 1) +
           bytes * cfg_.byte_time + cfg_.recv_overhead;
  }

  /// The same message under LinkContention::kStoreForward: every hop
  /// stores the whole payload before forwarding, so the wire term is paid
  /// once per edge.  Exact for an uncontended message (matches the
  /// simulator to the bit).
  [[nodiscard]] double message_store_forward(double bytes,
                                             int hops = 1) const {
    return cfg_.send_overhead + cfg_.latency + cfg_.per_hop * (hops - 1) +
           hops * bytes * cfg_.byte_time + cfg_.recv_overhead;
  }

  /// One 5-point-stencil halo exchange on a px x py block grid of an
  /// nx x ny array (star-mode faces, one latency round).
  [[nodiscard]] double halo_exchange2(int nx, int ny, int px, int py) const;

  /// One Jacobi iteration (copy-in + exchange + stencil), Listing 2/3.
  [[nodiscard]] double jacobi_iteration(int n, int p_side) const;

  /// One substructured tridiagonal solve of size n on p = 2^k processors.
  [[nodiscard]] double tri_solve(int n, int p) const;

  /// nsys pipelined solves (Listing 6).
  [[nodiscard]] double mtri_solve(int nsys, int n, int p) const;

  /// One ADI iteration on an n x n interior grid over px x py (Listing 7/8).
  [[nodiscard]] double adi_iteration(int n, int px, int py, bool pipelined) const;

  /// Wire-plus-overhead time of a complete exchange among p ranks where
  /// every ordered pair carries `bytes` — the fft2/ADI transpose shape
  /// redistribute() produces between (block, *) and (*, block) — issued
  /// through the round-structured schedule of machine/schedule.hpp.
  /// `model` mirrors MachineConfig::link_contention:
  ///  * kNone — slabs overlap on infinitely parallel links; only the last
  ///    slab's wire time is visible past the software overheads.
  ///  * kPorts — each of the p-1 rounds is a perfect matching, so every
  ///    injection/ejection link carries one slab per round and the wire
  ///    term is (p-1) slab times.
  ///  * kStoreForward — the busiest serialized edge paces the exchange:
  ///    the heaviest injection edge (destinations sharing a first hop at
  ///    one sender) or the heaviest funnel edge (sources converging on one
  ///    receiver), both computed exactly from route(), plus a
  ///    diameter-deep store-and-forward tail for the last slab.
  /// Pack/unpack compute (one flop per element each side) is excluded —
  /// add it via flop_time if comparing against simulated makespans.
  [[nodiscard]] double all_to_all(int p, double bytes,
                                  LinkContention model) const;

  /// The same exchange issued in naive ascending-peer order under link
  /// contention: all ranks inject toward the same destination in the same
  /// wave.  Under kPorts the hottest ejection port drains a whole wave
  /// after the last injection — about twice the scheduled wire time.
  /// Under kStoreForward the injection serialization and the hot
  /// receiver's funnel drain compound instead of overlapping (naive order
  /// oversubscribes the bisection edges toward each destination in turn).
  /// This is the cost the schedule removes (bench_redistribute's
  /// naive_order column).
  [[nodiscard]] double all_to_all_naive(
      int p, double bytes,
      LinkContention model = LinkContention::kPorts) const;

  /// The same exchange written as a lockstep round loop (bench_scaling's
  /// pencil transpose): each member sends to and then receives from its
  /// round partner before advancing, so the per-round message latency is
  /// *not* hidden behind the next round's sends — the price of keeping one
  /// slab per pair in flight.  The hop terms are exact: the busiest member
  /// pays the sum of its hop counts to every peer (computed from the
  /// topology), one wire time per message under kNone/kPorts and one per
  /// hop under kStoreForward.  Valid for all three contention tiers
  /// (lockstep rounds never queue: by the time a member reuses a port or
  /// edge, its clock has already advanced past the busy window).
  [[nodiscard]] double all_to_all_lockstep(int p, double bytes,
                                           LinkContention model) const;

  /// Wire-plus-overhead time of the round-scheduled all_gather collective
  /// among p ranks, each contributing `bytes` (collectives.hpp all_gather):
  /// every ordered pair carries one `bytes` message through the same
  /// perfect-matching rounds as the transpose, so the closed forms coincide
  /// with all_to_all for every contention tier; only the payload is
  /// replicated rather than partitioned.  The receiver-side concatenation
  /// compute (one op per gathered element) is excluded — add it via
  /// flop_time when comparing against simulated makespans.
  [[nodiscard]] double all_gather(int p, double bytes,
                                  LinkContention model) const;

 private:
  [[nodiscard]] double ft() const { return cfg_.flop_time; }

  MachineConfig cfg_;
  int nprocs_;
};

}  // namespace kali
