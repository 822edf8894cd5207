// Round-structured communication schedules for all-to-all style exchanges
// — the ordering layer between the senders of dense exchanges (the
// redistribution engine, the corner-mode halo exchange, the collectives
// layer's all_gather — they compute *what* travels between each rank pair)
// and the machine (which, with MachineConfig::link_contention, serializes
// each node's injection and ejection links).
//
// A CommSchedule partitions the ordered rank pairs of an n-member
// communicator into rounds, each round a perfect matching: every member
// sends to at most one partner and receives from at most one partner per
// round, so no link is oversubscribed.  Two classical constructions:
//
//  * n a power of two — XOR / pairwise exchange: in round r, member i
//    partners i ^ (r+1).  n-1 rounds; on a hypercube, round r's pairs
//    differ in exactly the bits of r+1, so rounds also spread across
//    physical dimensions.
//
//  * otherwise — latin-square (1-factorization) ordering: in round r,
//    member i partners (r - i) mod n.  n rounds; members for which
//    2i = r (mod n) sit the round out.
//
// Both constructions are involutions per round (my round-r partner's
// round-r partner is me) and cover every ordered pair exactly once, so a
// sender issuing in round order and a receiver posting receives in round
// order agree on a common global order without any extra synchronization:
// in a dense all-to-all round r's messages are injected while round r-1's
// drain, no link carries two messages of one round, and the exchange
// completes in (n-1) wire slots instead of the ~2(n-1) that naive
// per-peer issue order costs under contention (every member hammering the
// same low-ranked ejection ports first).  A sparse pair set keeps the
// rounds' order but not their slots: each sender issues its own pairs
// back to back, skipping the rounds it has no partner in, so its k-th
// send need not be its round-k message, and senders whose compacted
// sequences end on the same receiver still collide at its ejection port.
// The box exchange (runtime/redistribute.hpp) therefore orders by an edge
// colouring of its own pair graph instead (detail::pair_graph_sort), with
// the round as tie-break.
//
// Exchanges use one machine-wide schedule: a pair's round is
// CommSchedule(nprocs).round_of(rank, peer), a function of the two machine
// ranks alone, so no exchange builds, merges or searches a member list.
// That is exact for any slice of the processor array, because restricted
// to any rank subset each round of the machine-wide schedule is still a
// matching (a rank has at most one partner per round; some ranks idle).
// On a whole-machine view it is the n-member order itself, and on an
// aligned power-of-two slice XOR keeps the slice's own relative order.
//
// Every exchange — the box exchange and the cyclic binner behind
// redistribute and copy_strided_dim, the halo exchange in both modes, the
// dense all_gather and both inspector passes — runs through one primitive,
// detail::exchange_begin(): it puts the sends in round order with
// round_sort() (or in the order a caller's send-order function gives: the
// box exchange's pair-graph order) and the receives in round order, fires
// the sends, and returns a PendingExchange whose
// finish() takes every receive in one Context::recv_batch.  So the machine
// has one charge rule (each receive, then its unpack, in canonical
// (send_time, src, seq) order), and the blocking forms are
// _begin(...).finish().  IssueOrder::kPeerOrder keeps the raw enumeration
// order instead: the naive baseline bench_redistribute measures the
// schedule against, and the face-mode halo's order (ascending direction
// code).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "machine/context.hpp"
#include "machine/event_log.hpp"
#include "support/check.hpp"

namespace kali {

/// How a runtime exchange orders its per-peer messages.
enum class IssueOrder {
  kRoundSchedule,  ///< scheduled (default): round order; a box
                   ///< exchange's sends in pair-graph order
  kPeerOrder,      ///< raw peer-enumeration order (naive baseline)
};

/// Round/partner algebra of an n-member all-to-all schedule.  Members are
/// dense indices 0..n-1; the exchanges use n = nprocs, so members are
/// machine ranks.
class CommSchedule {
 public:
  explicit CommSchedule(int nranks) : n_(nranks) {
    KALI_CHECK(nranks >= 1, "schedule needs at least one member");
    pow2_ = nranks >= 2 && (nranks & (nranks - 1)) == 0;
  }

  [[nodiscard]] int nranks() const { return n_; }

  /// Number of rounds: n-1 for powers of two, n otherwise (latin-square
  /// rounds where 2i = r (mod n) idle member i), 0 for a singleton.
  [[nodiscard]] int rounds() const {
    if (n_ == 1) {
      return 0;
    }
    return pow2_ ? n_ - 1 : n_;
  }

  /// Member i's partner in `round`; equal to i when i idles that round.
  [[nodiscard]] int partner(int round, int i) const {
    KALI_CHECK(round >= 0 && round < rounds(), "round out of range");
    KALI_CHECK(i >= 0 && i < n_, "member out of range");
    if (pow2_) {
      return i ^ (round + 1);
    }
    return ((round - i) % n_ + n_) % n_;
  }

  /// The unique round in which members i and j (i != j) are partners.
  [[nodiscard]] int round_of(int i, int j) const {
    KALI_CHECK(i >= 0 && i < n_ && j >= 0 && j < n_ && i != j,
               "round_of needs two distinct members");
    return pow2_ ? (i ^ j) - 1 : (i + j) % n_;
  }

 private:
  int n_;
  bool pow2_ = false;
};

/// Member i's partners in round order — the issue order for i's sends and
/// the posting order for its receives.  Idle rounds are skipped, so the
/// result is a permutation of every other member.
inline std::vector<int> round_order(const CommSchedule& s, int i) {
  std::vector<int> peers;
  peers.reserve(static_cast<std::size_t>(s.nranks() - 1));
  for (int r = 0; r < s.rounds(); ++r) {
    const int p = s.partner(r, i);
    if (p != i) {
      peers.push_back(p);
    }
  }
  return peers;
}

/// The schedule as a (round x member) activity matrix: 'x' where a member
/// exchanges that round, '.' where it idles — Figure-5-style rendering of
/// the matchings, and the form tests assert on.
inline ActivityTrace schedule_trace(const CommSchedule& s) {
  ActivityTrace t(s.rounds(), s.nranks());
  for (int r = 0; r < s.rounds(); ++r) {
    for (int i = 0; i < s.nranks(); ++i) {
      if (s.partner(r, i) != i) {
        t.mark(r, i, 'x');
      }
    }
  }
  return t;
}

namespace detail {

/// Reorder per-peer messages (machine rank, payload) into round order for
/// `self_rank` within the machine-wide schedule of `nprocs` ranks: a pair's
/// round is CommSchedule(nprocs).round_of(self_rank, peer), a function of
/// the two machine ranks alone, so both endpoints agree on it without a
/// member list.  kPeerOrder leaves the enumeration order untouched.
/// Self-messages must have been peeled off into local copies before this
/// point.
template <class Payload>
void round_sort(std::vector<std::pair<int, Payload>>& msgs, int nprocs,
                int self_rank, IssueOrder order = IssueOrder::kRoundSchedule) {
  if (order == IssueOrder::kPeerOrder || msgs.size() < 2) {
    return;
  }
  const CommSchedule sched(nprocs);
  std::stable_sort(msgs.begin(), msgs.end(),
                   [&](const auto& a, const auto& b) {
                     return sched.round_of(self_rank, a.first) <
                            sched.round_of(self_rank, b.first);
                   });
}

/// The one dense-exchange primitive: fire one `tag` message per entry of
/// `out` — (machine rank, what to send) — each payload the span
/// `pack(what)` returns, and return the open exchange receiving one
/// message per entry of `in` — (machine rank, where it goes).  Under
/// kRoundSchedule the sends go out in the order `order_sends(out)` leaves
/// them in and the receives are posted in round order (round_sort);
/// kPeerOrder keeps both lists' enumeration order.  Its finish() is one
/// recv_batch that hands each message's values to `unpack(where, values)`,
/// which returns the element count charged for the unpack.  The wire
/// window opens before the first send; the caller charges its pack and any
/// local copy after this returns, inside the window.  Self-messages must
/// have been peeled off into local copies before this point.
template <class T, class Out, class In, class Pack, class Unpack,
          class OrderSends>
[[nodiscard]] PendingExchange exchange_begin(
    Context& ctx, int tag, std::vector<std::pair<int, Out>> out,
    std::vector<std::pair<int, In>> in, Pack&& pack, Unpack unpack,
    IssueOrder order, OrderSends order_sends) {
  const double window_start = ctx.clock();
  if (order == IssueOrder::kRoundSchedule) {
    order_sends(out);
    round_sort(in, ctx.nprocs(), ctx.rank());
  }
  for (const auto& [rank, what] : out) {
    ctx.send_span<T>(rank, tag, pack(what));
  }
  std::vector<RecvLane> lanes;
  lanes.reserve(in.size());
  for (const auto& e : in) {
    lanes.push_back({e.first, tag});
  }
  return PendingExchange(
      ctx, window_start, lanes,
      [in = std::move(in), unpack = std::move(unpack)](std::size_t i,
                                                       Message m) {
        return unpack(in[i].second, payload_values<T>(std::move(m)));
      });
}

/// exchange_begin with the sends in round order too.
template <class T, class Out, class In, class Pack, class Unpack>
[[nodiscard]] PendingExchange exchange_begin(
    Context& ctx, int tag, std::vector<std::pair<int, Out>> out,
    std::vector<std::pair<int, In>> in, Pack&& pack, Unpack unpack,
    IssueOrder order = IssueOrder::kRoundSchedule) {
  return exchange_begin<T>(
      ctx, tag, std::move(out), std::move(in), std::forward<Pack>(pack),
      std::move(unpack), order,
      [&ctx](std::vector<std::pair<int, Out>>& msgs) {
        round_sort(msgs, ctx.nprocs(), ctx.rank());
      });
}

}  // namespace detail

}  // namespace kali
