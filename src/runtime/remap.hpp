// Strided copies between arrays of different extents/distributions along
// one dimension — the communication core of multigrid restriction and
// interpolation under semi-coarsening (paper §5), where coarse-grid
// ownership does not generally align with fine-grid ownership.
//
//   copy_strided_dim(ctx, src, dst, dim, s_stride, s_off, d_stride, d_off, n)
//     performs, along `dim`:  dst[d_stride*t + d_off] = src[s_stride*t + s_off]
//     for t = 0..n-1, identity on all other dimensions.
//
// Restriction injects  dst_coarse[K] = src_fine[2K]   (s_stride=2, d_stride=1);
// interpolation spreads dst_fine[2K] = src_coarse[K]  (s_stride=1, d_stride=2).
//
// Like redistribute(), the protocol is analytic: messages travel only
// between rank pairs that actually share elements — no counts on the wire,
// no empty-message flood, no all-pairs ownership scan.  Payloads are raw
// values: both sides enumerate their shared elements in row-major order
// (the strided dim mapping is monotone, so source order and destination
// order agree), so no per-element index metadata is needed.  A rank's
// overlap with itself is copied locally, never sent
// (MachineStats::self_msgs(kTagRemap) stays zero), and remote messages are
// issued through the round-structured schedules of machine/schedule.hpp.
//
// Two paths implement the protocol:
//
//  * Box fast path (all dims of both arrays block or star): the transfer
//    set is parameterized by t — along `dim` each rank's owned block maps
//    to a contiguous t-interval, and off-dims intersect as axis-aligned
//    boxes — so peers are enumerated in O(peers) from per-dim owner ranges
//    and payloads are contiguous slabs, with no per-element owner lookups.
//    It is a strided detail::BoxCopy (runtime/redistribute.hpp): one
//    planner feeds the blocking forms and the _begin split-phase forms,
//    with or without the fused halo.
//
//  * Per-element owner binning (any cyclic/block-cyclic dim): each side
//    walks its own elements once, computing the unique opposite owner in
//    O(R) per element.  Exposed as copy_strided_dim_binned(): the fallback
//    for cyclic layouts and the differential-test oracle for the box path.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "machine/message.hpp"  // kTagRemap (reserved-tag registry)
#include "runtime/redistribute.hpp"

namespace kali {

namespace detail {

/// Shared argument validation for every copy_strided_dim form.
template <class T, int R>
void check_strided_args(const DistArray<T, R>& src, const DistArray<T, R>& dst,
                        int dim, int s_stride, int s_off, int d_stride,
                        int d_off, int count) {
  for (int d = 0; d < R; ++d) {
    if (d != dim) {
      KALI_CHECK(src.extent(d) == dst.extent(d),
                 "copy_strided_dim: extent mismatch off-dim");
    }
  }
  KALI_CHECK(s_stride >= 1 && d_stride >= 1,
             "copy_strided_dim: strides must be positive");
  KALI_CHECK(count >= 0, "copy_strided_dim: bad count");
  KALI_CHECK(count == 0 || (s_off + (count - 1) * s_stride < src.extent(dim) &&
                            d_off + (count - 1) * d_stride < dst.extent(dim)),
             "copy_strided_dim: range out of bounds");
  KALI_CHECK(count == 0 || (s_off >= 0 && d_off >= 0),
             "copy_strided_dim: negative offset");
}

/// Validate a box-path strided copy and describe it as a BoxCopy.  The
/// halo-fused form (`fuse_halo`) additionally needs every block of a halo
/// dim at least as wide as the halo.
template <class T, int R>
BoxCopy strided_box_copy(const char* what, const DistArray<T, R>& src,
                         const DistArray<T, R>& dst, int dim, int s_stride,
                         int s_off, int d_stride, int d_off, int count,
                         bool fuse_halo) {
  check_strided_args(src, dst, dim, s_stride, s_off, d_stride, d_off, count);
  KALI_CHECK(box_eligible(src) && box_eligible(dst),
             std::string(what) + ": requires block/star layouts");
  if (fuse_halo) {
    for (int d = 0; d < R; ++d) {
      const int h = dst.halo(d);
      if (h > 0) {
        const int np = dst.view().extent(dst.proc_dim(d));
        for (int c = 0; c < np; ++c) {
          KALI_CHECK(dst.map(d).count(c) >= h,
                     std::string(what) + ": halo wider than a block");
        }
      }
    }
  }
  return BoxCopy{what,   kTagRemap, dim,   s_stride, s_off,
                 d_stride, d_off,   count, fuse_halo};
}

}  // namespace detail

/// The owner-binning implementation of copy_strided_dim: each side walks
/// its own elements once, computing the unique opposite owner per element.
/// Handles every distribution kind; used directly by copy_strided_dim for
/// cyclic/block-cyclic layouts and kept callable as the differential-test
/// oracle for the box fast path.
template <class T, int R>
void copy_strided_dim_binned(Context& ctx, const DistArray<T, R>& src,
                             DistArray<T, R>& dst, int dim, int s_stride,
                             int s_off, int d_stride, int d_off, int count,
                             IssueOrder order = IssueOrder::kRoundSchedule) {
  detail::check_strided_args(src, dst, dim, s_stride, s_off, d_stride, d_off,
                             count);
  const auto ud = static_cast<std::size_t>(dim);
  const bool in_src = src.participating();
  const bool in_dst = dst.participating();
  if ((!in_src && !in_dst) || count == 0) {
    return;
  }
  const std::vector<int> members =
      detail::union_members(src.view().ranks(), dst.view().ranks());

  std::vector<std::pair<int, std::vector<T>>> out;
  std::vector<std::pair<int, std::vector<GIndex<R>>>> in;
  double unpacked = 0;
  if (in_src) {
    const std::vector<int> dst_ranks = dst.view().ranks();
    const std::size_t self_di =
        in_dst ? static_cast<std::size_t>(dst.view().linear_index_of(ctx.rank()))
               : dst_ranks.size();  // sentinel: matches no bin
    std::vector<std::vector<T>> bins(dst_ranks.size());
    src.for_each_owned([&](GIndex<R> g) {
      const int rel = g[ud] - s_off;
      if (rel < 0 || rel % s_stride != 0 || rel / s_stride >= count) {
        return;
      }
      GIndex<R> gd = g;
      gd[ud] = d_off + (rel / s_stride) * d_stride;
      const std::size_t di = detail::owner_index(dst, gd);
      if (di != self_di) {
        bins[di].push_back(src.at(g));
      }
    });
    for (std::size_t pi = 0; pi < bins.size(); ++pi) {
      if (!bins[pi].empty()) {
        out.emplace_back(dst_ranks[pi], std::move(bins[pi]));
      }
    }
  }
  if (in_dst) {
    // Expected elements per source rank, derived from my own slab in the
    // same row-major order the sender packs.
    const std::vector<int> src_ranks = src.view().ranks();
    std::vector<std::vector<GIndex<R>>> expect(src_ranks.size());
    dst.for_each_owned([&](GIndex<R> g) {
      const int rel = g[ud] - d_off;
      if (rel < 0 || rel % d_stride != 0 || rel / d_stride >= count) {
        return;
      }
      GIndex<R> gs = g;
      gs[ud] = s_off + (rel / d_stride) * s_stride;
      expect[detail::owner_index(src, gs)].push_back(g);
    });
    for (std::size_t pi = 0; pi < expect.size(); ++pi) {
      if (expect[pi].empty()) {
        continue;
      }
      if (src_ranks[pi] == ctx.rank()) {
        // Self-overlap: both owners are this rank — local copy.
        for (const GIndex<R>& g : expect[pi]) {
          GIndex<R> gs = g;
          gs[ud] = s_off + ((g[ud] - d_off) / d_stride) * s_stride;
          dst.at(g) = src.at(gs);
        }
        unpacked += static_cast<double>(expect[pi].size());
        continue;
      }
      in.emplace_back(src_ranks[pi], std::move(expect[pi]));
    }
  }
  double packed = 0;
  auto send_one = [&](int rank, const std::vector<T>& vals) {
    ctx.send_span<T>(rank, kTagRemap, std::span<const T>(vals));
    packed += static_cast<double>(vals.size());
  };
  auto recv_one = [&](int rank, const std::vector<GIndex<R>>& idxs) {
    auto vals = ctx.recv_vec<T>(rank, kTagRemap);
    KALI_CHECK(vals.size() == idxs.size(),
               "copy_strided_dim: bin size mismatch");
    for (std::size_t k = 0; k < vals.size(); ++k) {
      dst.at(idxs[k]) = vals[k];
    }
    unpacked += static_cast<double>(vals.size());
  };
  detail::issue_exchange(
      members, ctx.rank(), order, out, in, send_one, recv_one,
      [&] { ctx.compute(packed); }, [&] { ctx.compute(unpacked); });
}

/// Blocking strided copy.  Box layouts (block/star on every dim of both
/// arrays) take the slab path; cyclic layouts fall back to the binned path.
template <class T, int R>
void copy_strided_dim(Context& ctx, const DistArray<T, R>& src,
                      DistArray<T, R>& dst, int dim, int s_stride, int s_off,
                      int d_stride, int d_off, int count,
                      IssueOrder order = IssueOrder::kRoundSchedule) {
  if (!detail::box_eligible(src) || !detail::box_eligible(dst)) {
    copy_strided_dim_binned(ctx, src, dst, dim, s_stride, s_off, d_stride,
                            d_off, count, order);
    return;
  }
  const detail::BoxCopy c =
      detail::strided_box_copy("copy_strided_dim", src, dst, dim, s_stride,
                               s_off, d_stride, d_off, count,
                               /*fuse_halo=*/false);
  detail::ExchangePlan<R> plan = detail::plan_exchange(ctx, src, dst, c);
  // The self-overlap copy is charged with the final unpack.
  const double copied = detail::copy_self(src, dst, c, plan);
  detail::exchange_blocking(ctx, src, dst, c, plan, order, copied);
}

/// Split-phase copy_strided_dim (box layouts only): sends fired, receives
/// posted, pack and self-overlap already charged inside the wire window;
/// run the work to hide, then finish().  See PendingExchange.
template <class T, int R>
[[nodiscard]] PendingExchange copy_strided_dim_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst, int dim,
    int s_stride, int s_off, int d_stride, int d_off, int count,
    IssueOrder order = IssueOrder::kRoundSchedule) {
  const detail::BoxCopy c =
      detail::strided_box_copy("copy_strided_dim_begin", src, dst, dim,
                               s_stride, s_off, d_stride, d_off, count,
                               /*fuse_halo=*/false);
  return detail::exchange_begin(ctx, src, dst, c,
                                detail::plan_exchange(ctx, src, dst, c), order);
}

/// copy_strided_dim + dst.exchange_halo() fused into one scheduled exchange
/// — the batched multigrid level switch.  Receive boxes are dst's owned box
/// *expanded by its halo margins* (clipped to the global domain), so every
/// ghost cell whose global index lies in the strided image arrives in the
/// same messages as the owned cells: one redistribution per level switch
/// instead of a remap round followed by a halo round, roughly halving the
/// level-switch message count.
///
/// Semantics: identical to `copy_strided_dim(...); dst.exchange_halo();` on
/// a freshly constructed dst (which is how multigrid uses it — mg2/mg3's
/// interpolation temporaries).  Ghost cells *outside* the strided image are
/// left untouched, where the separate halo exchange would copy the
/// neighbour's current (for a fresh array: zero) values; out-of-domain
/// frame cells are never written.  Requires block/star layouts on both
/// arrays and halos no wider than dst's thinnest block.
template <class T, int R>
void copy_strided_dim_halo(Context& ctx, const DistArray<T, R>& src,
                           DistArray<T, R>& dst, int dim, int s_stride,
                           int s_off, int d_stride, int d_off, int count,
                           IssueOrder order = IssueOrder::kRoundSchedule) {
  const detail::BoxCopy c =
      detail::strided_box_copy("copy_strided_dim_halo", src, dst, dim,
                               s_stride, s_off, d_stride, d_off, count,
                               /*fuse_halo=*/true);
  detail::ExchangePlan<R> plan = detail::plan_exchange(ctx, src, dst, c);
  // The self-overlap copy (ghost targets included) is charged with the
  // final unpack.
  const double copied = detail::copy_self(src, dst, c, plan);
  detail::exchange_blocking(ctx, src, dst, c, plan, order, copied);
}

/// Split-phase copy_strided_dim_halo: the fused remap+halo transfer with
/// its wait point exposed.
template <class T, int R>
[[nodiscard]] PendingExchange copy_strided_dim_halo_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst, int dim,
    int s_stride, int s_off, int d_stride, int d_off, int count,
    IssueOrder order = IssueOrder::kRoundSchedule) {
  const detail::BoxCopy c =
      detail::strided_box_copy("copy_strided_dim_halo_begin", src, dst, dim,
                               s_stride, s_off, d_stride, d_off, count,
                               /*fuse_halo=*/true);
  return detail::exchange_begin(ctx, src, dst, c,
                                detail::plan_exchange(ctx, src, dst, c), order);
}

}  // namespace kali
