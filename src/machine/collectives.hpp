// Tree-based collectives over a processor view (ProcView), built purely
// from point-to-point messages — exactly what a KF1 compiler would emit for
// replicated control flow on a loosely coupled machine.  A member's index
// is its row-major position in the view (linear_index_of), and the caller
// must be a member.
//
// All members of the view must call the same collective in the same order
// (standard SPMD discipline).  Tags live in the collectives band of the
// reserved-tag registry (machine/message.hpp), so user, runtime, and kernel
// point-to-point traffic can never collide with them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "machine/context.hpp"
#include "machine/message.hpp"   // kCollectiveTagBase (reserved-tag registry)
#include "machine/proc_view.hpp"
#include "machine/schedule.hpp"  // CommSchedule rounds for all_gather

namespace kali {

inline constexpr int kTagReduceUp = kCollectiveTagBase + 1;
inline constexpr int kTagBcastDown = kCollectiveTagBase + 2;
inline constexpr int kTagGather = kCollectiveTagBase + 3;
inline constexpr int kTagBarrierUp = kCollectiveTagBase + 4;
inline constexpr int kTagBarrierDown = kCollectiveTagBase + 5;
inline constexpr int kTagGatherCounts = kCollectiveTagBase + 6;
inline constexpr int kTagAllGather = kCollectiveTagBase + 7;
// The registry (message.hpp) pins the collectives-band allocation to
// [kCollectiveTagFirst, kCollectiveTagLast]; extending the block above
// means widening those bounds first.
static_assert(kTagReduceUp == kCollectiveTagFirst &&
                  kTagAllGather == kCollectiveTagLast,
              "collectives tag block drifted from the reserved-tag registry");

namespace detail {
inline int tree_parent(int i) { return (i - 1) / 2; }
inline int tree_child(int i, int which) { return 2 * i + 1 + which; }

/// Members of the (binary heap) subtree rooted at `i` in an `n`-member
/// tree, sorted ascending — the order in which gather's up-sweep messages
/// lay out their per-member counts and payload segments.
inline std::vector<int> tree_subtree_sorted(int i, int n) {
  std::vector<int> out;
  std::vector<int> stack{i};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (v < n) {
      out.push_back(v);
      stack.push_back(tree_child(v, 0));
      stack.push_back(tree_child(v, 1));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}
}  // namespace detail

/// Synchronize all view members (empty-payload reduce + broadcast).
void barrier(Context& ctx, const ProcView& v);

/// Broadcast `data` from the member at `root_index` to all members.
template <class T>
void broadcast(Context& ctx, const ProcView& v, int root_index, std::span<T> data) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int n = v.count();
  KALI_CHECK(root_index >= 0 && root_index < n, "broadcast: bad root");
  // Re-index the tree so the root is node 0.
  auto pos = [&](int i) { return (i - root_index + n) % n; };
  auto unpos = [&](int i) { return (i + root_index) % n; };
  const int me = pos(v.linear_index_of(ctx.rank()));
  if (me != 0) {
    ctx.recv_into(v.rank_at(unpos(detail::tree_parent(me))), kTagBcastDown,
                  data);
  }
  for (int which = 0; which < 2; ++which) {
    const int c = detail::tree_child(me, which);
    if (c < n) {
      ctx.send_span(v.rank_at(unpos(c)), kTagBcastDown,
                    std::span<const T>(data.data(), data.size()));
    }
  }
}

/// Element-wise tree reduction of `data` into the member at `root_index`.
/// On return, only the root's `data` holds the reduced values.
template <class T, class Op>
void reduce(Context& ctx, const ProcView& v, int root_index, std::span<T> data, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int n = v.count();
  KALI_CHECK(root_index >= 0 && root_index < n, "reduce: bad root");
  auto pos = [&](int i) { return (i - root_index + n) % n; };
  auto unpos = [&](int i) { return (i + root_index) % n; };
  const int me = pos(v.linear_index_of(ctx.rank()));
  for (int which = 1; which >= 0; --which) {
    const int c = detail::tree_child(me, which);
    if (c < n) {
      std::vector<T> incoming = ctx.recv_vec<T>(v.rank_at(unpos(c)), kTagReduceUp);
      KALI_CHECK(incoming.size() == data.size(), "reduce size mismatch");
      for (std::size_t k = 0; k < data.size(); ++k) {
        data[k] = op(data[k], incoming[k]);
      }
      ctx.compute(static_cast<double>(data.size()));
    }
  }
  if (me != 0) {
    ctx.send_span(v.rank_at(unpos(detail::tree_parent(me))), kTagReduceUp,
                  std::span<const T>(data.data(), data.size()));
  }
}

/// Reduce to member 0, then broadcast: all members end with the result.
template <class T, class Op>
void allreduce(Context& ctx, const ProcView& v, std::span<T> data, Op op) {
  reduce(ctx, v, 0, data, op);
  broadcast(ctx, v, 0, data);
}

template <class T>
T allreduce_sum(Context& ctx, const ProcView& v, T value) {
  allreduce(ctx, v, std::span<T>(&value, 1), [](T a, T b) { return a + b; });
  return value;
}

template <class T>
T allreduce_max(Context& ctx, const ProcView& v, T value) {
  allreduce(ctx, v, std::span<T>(&value, 1),
            [](T a, T b) { return a > b ? a : b; });
  return value;
}

/// Gather variable-length contributions to `root_index`.  Returns, on the
/// root only, the concatenation in view order; elsewhere an empty vector.
///
/// Tree-structured like reduce: each node merges its children's subtrees
/// and forwards one (counts, payload) message pair to its parent, so the
/// root drains two children in O(log P) depth instead of paying P - 1
/// serial receive latencies.  Counts travel as an explicit header because
/// contributions are variable-length and heap subtrees interleave member
/// indices — the root needs them to reassemble view order.
template <class T>
std::vector<T> gather(Context& ctx, const ProcView& v, int root_index,
                      std::span<const T> mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int n = v.count();
  KALI_CHECK(root_index >= 0 && root_index < n, "gather: bad root");
  // Re-index the tree so the root is node 0.
  auto pos = [&](int i) { return (i - root_index + n) % n; };
  auto unpos = [&](int i) { return (i + root_index) % n; };
  const int me = pos(v.linear_index_of(ctx.rank()));
  if (n == 1) {
    return std::vector<T>(mine.begin(), mine.end());
  }

  // This subtree's contributions: member (pos-)indices sorted ascending,
  // one count per member, payload segments concatenated in the same order.
  std::vector<int> members{me};
  std::vector<std::int64_t> counts{static_cast<std::int64_t>(mine.size())};
  std::vector<T> data(mine.begin(), mine.end());
  for (int which = 1; which >= 0; --which) {
    const int c = detail::tree_child(me, which);
    if (c >= n) {
      continue;
    }
    const int crank = v.rank_at(unpos(c));
    const std::vector<int> csub = detail::tree_subtree_sorted(c, n);
    const auto ccounts = ctx.recv_vec<std::int64_t>(crank, kTagGatherCounts);
    const auto cdata = ctx.recv_vec<T>(crank, kTagGather);
    KALI_CHECK(ccounts.size() == csub.size(), "gather: counts mismatch");
    // Merge the child's sorted run into ours, member by member.
    std::vector<int> m2;
    std::vector<std::int64_t> c2;
    std::vector<T> d2;
    m2.reserve(members.size() + csub.size());
    c2.reserve(members.size() + csub.size());
    d2.reserve(data.size() + cdata.size());
    std::size_t ai = 0, bi = 0, aoff = 0, boff = 0;
    while (ai < members.size() || bi < csub.size()) {
      const bool take_mine =
          bi == csub.size() ||
          (ai < members.size() && members[ai] < csub[bi]);
      if (take_mine) {
        const auto len = static_cast<std::size_t>(counts[ai]);
        m2.push_back(members[ai]);
        c2.push_back(counts[ai]);
        d2.insert(d2.end(), data.begin() + static_cast<std::ptrdiff_t>(aoff),
                  data.begin() + static_cast<std::ptrdiff_t>(aoff + len));
        aoff += len;
        ++ai;
      } else {
        const auto len = static_cast<std::size_t>(ccounts[bi]);
        m2.push_back(csub[bi]);
        c2.push_back(ccounts[bi]);
        d2.insert(d2.end(), cdata.begin() + static_cast<std::ptrdiff_t>(boff),
                  cdata.begin() + static_cast<std::ptrdiff_t>(boff + len));
        boff += len;
        ++bi;
      }
    }
    members = std::move(m2);
    counts = std::move(c2);
    data = std::move(d2);
    ctx.compute(static_cast<double>(data.size()));  // merge copy cost
  }
  if (me != 0) {
    const int prank = v.rank_at(unpos(detail::tree_parent(me)));
    ctx.send_span<std::int64_t>(prank, kTagGatherCounts,
                                std::span<const std::int64_t>(counts));
    ctx.send_span<T>(prank, kTagGather, std::span<const T>(data));
    return {};
  }
  // Root: `members` now covers every pos index 0..n-1; re-emit segments in
  // view order (pos order is view order rotated by root_index).
  std::vector<std::size_t> offset(members.size() + 1, 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    offset[i + 1] = offset[i] + static_cast<std::size_t>(counts[i]);
  }
  std::vector<T> out;
  out.reserve(data.size());
  for (int j = 0; j < n; ++j) {
    const auto p = static_cast<std::size_t>(pos(j));
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(offset[p]),
               data.begin() + static_cast<std::ptrdiff_t>(offset[p + 1]));
  }
  return out;
}

namespace detail {

/// Tree-structured all_gather for tiny payloads: gather everything to
/// member 0 through the binary tree, then broadcast the total count and
/// the concatenation back down.  O(log n) message latencies on the
/// critical path versus the dense exchange's n-1 serialized rounds —
/// the win for latency-bound payloads; for large ones the root's 2x
/// bandwidth funnel loses, which is why the hybrid crossover exists.
template <class T>
std::vector<T> all_gather_tree(Context& ctx, const ProcView& v,
                               std::span<const T> mine) {
  std::vector<T> all = gather(ctx, v, 0, mine);
  std::uint64_t total =
      ctx.rank() == v.rank_at(0) ? static_cast<std::uint64_t>(all.size()) : 0;
  broadcast(ctx, v, 0, std::span<std::uint64_t>(&total, 1));
  all.resize(static_cast<std::size_t>(total));
  broadcast(ctx, v, 0, std::span<T>(all.data(), all.size()));
  return all;
}

}  // namespace detail

/// All-gather variable-length contributions: every member returns the
/// concatenation of all members' `mine` spans in view order.
///
/// A *hybrid* collective.  The default (bandwidth-bound) algorithm is a
/// dense pairwise exchange (every ordered pair of members carries one
/// message) issued through the machine-wide round schedule of
/// machine/schedule.hpp: a pair's round depends only on the two machine
/// ranks, and each round restricted to the view's ranks is still a
/// matching, so under MachineConfig::link_contention no injection or
/// ejection link is oversubscribed and the exchange completes in ~n-1 wire
/// slots instead of the ~2(n-1) that rank-order issue costs.  Tiny
/// payloads (view-max contribution <=
/// MachineConfig::allgather_tree_max_bytes, agreed by a scalar allreduce
/// so every member deterministically picks the same algorithm) instead ride a binary gather + broadcast tree: O(n)
/// messages instead of n(n-1), cutting the network load and aggregate
/// overhead a quadratic message count costs when each payload fits in one
/// packet (e.g. per-iteration residual norms) — at the price of the
/// tree's deeper critical path.  Setting the crossover to 0 pins the
/// dense path and skips the agreement round entirely.
/// `order` selects the dense path's issue order (kPeerOrder is the naive
/// rank-order baseline).  No counts travel on the wire (messages are
/// self-sizing) and no member ever sends to itself, whichever algorithm
/// runs.
template <class T>
std::vector<T> all_gather(Context& ctx, const ProcView& v, std::span<const T> mine,
                          IssueOrder order = IssueOrder::kRoundSchedule) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int n = v.count();
  const int me = v.linear_index_of(ctx.rank());
  if (n == 1) {
    return std::vector<T>(mine.begin(), mine.end());
  }
  const std::size_t cutoff = ctx.config().allgather_tree_max_bytes;
  if (cutoff > 0) {
    const auto max_bytes = allreduce_max(
        ctx, v, static_cast<std::uint64_t>(mine.size_bytes()));
    if (max_bytes <= cutoff) {
      return detail::all_gather_tree(ctx, v, mine);
    }
  }
  // Per-peer segment slots, keyed by view index (= output order).
  std::vector<std::vector<T>> segs(static_cast<std::size_t>(n));
  std::vector<std::pair<int, int>> out;  // (machine rank, peer view index)
  std::vector<std::pair<int, int>> in;
  out.reserve(static_cast<std::size_t>(n - 1));
  in.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n; ++i) {
    if (i == me) {
      continue;
    }
    out.emplace_back(v.rank_at(i), i);
    in.emplace_back(v.rank_at(i), i);
  }
  // Contributions are sent as-is, with no packing pass; the own segment's
  // copy is charged inside the wire window, each received one as its
  // unpack.
  PendingExchange ex = detail::exchange_begin<T>(
      ctx, kTagAllGather, std::move(out), std::move(in),
      [&](int) { return mine; },
      [&](int gi, std::vector<T> seg) {
        auto& slot = segs[static_cast<std::size_t>(gi)];
        slot = std::move(seg);
        return static_cast<double>(slot.size());
      },
      order);
  segs[static_cast<std::size_t>(me)].assign(mine.begin(), mine.end());
  ctx.compute(static_cast<double>(mine.size()));
  ex.finish();
  std::vector<T> result;
  std::size_t total = 0;
  for (const auto& seg : segs) {
    total += seg.size();
  }
  result.reserve(total);
  for (const auto& seg : segs) {
    result.insert(result.end(), seg.begin(), seg.end());
  }
  return result;
}

/// Align the simulated clocks of all members to their maximum (a barrier in
/// model time).  Returns the aligned clock value.
double sync_clocks(Context& ctx, const ProcView& v);

}  // namespace kali
