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
//    planner and one begin (detail::box_exchange_begin), with or without
//    the fused halo.
//
//  * Per-element owner binning (any cyclic/block-cyclic dim): each side
//    walks its own elements once, computing the unique opposite owner in
//    O(R) per element — detail::binned_exchange_begin, the binner
//    redistribute() shares.  Exposed as copy_strided_dim_binned(): the
//    differential-test oracle for the box path.
//
// copy_strided_dim_begin() picks the path; each blocking form is its
// _begin form finished at once.
#pragma once

#include <cstdint>
#include <string>

#include "machine/message.hpp"  // kTagRemap (reserved-tag registry)
#include "runtime/redistribute.hpp"

namespace kali {

namespace detail {

/// Validate a strided copy's arguments and describe it as a BoxCopy.
template <class T, int R>
BoxCopy strided_copy(const char* what, const DistArray<T, R>& src,
                     const DistArray<T, R>& dst, int dim, int s_stride,
                     int s_off, int d_stride, int d_off, int count,
                     bool fuse_halo = false) {
  for (int d = 0; d < R; ++d) {
    if (d != dim) {
      KALI_CHECK(src.extent(d) == dst.extent(d),
                 "copy_strided_dim: extent mismatch off-dim");
    }
  }
  KALI_CHECK(s_stride >= 1 && d_stride >= 1,
             "copy_strided_dim: strides must be positive");
  KALI_CHECK(count >= 0, "copy_strided_dim: bad count");
  // The last index in 64 bits: (count - 1) * stride may overflow int.
  const std::int64_t last = count - 1;
  KALI_CHECK(count == 0 || (s_off + last * s_stride < src.extent(dim) &&
                            d_off + last * d_stride < dst.extent(dim)),
             "copy_strided_dim: range out of bounds");
  KALI_CHECK(count == 0 || (s_off >= 0 && d_off >= 0),
             "copy_strided_dim: negative offset");
  return BoxCopy{what,   kTagRemap, dim,   s_stride, s_off,
                 d_stride, d_off,   count, fuse_halo};
}

/// Validate a box-path strided copy and describe it as a BoxCopy.  The
/// halo-fused form (`fuse_halo`) additionally needs every block of a halo
/// dim at least as wide as the halo.
template <class T, int R>
BoxCopy strided_box_copy(const char* what, const DistArray<T, R>& src,
                         const DistArray<T, R>& dst, int dim, int s_stride,
                         int s_off, int d_stride, int d_off, int count,
                         bool fuse_halo) {
  const BoxCopy c = strided_copy(what, src, dst, dim, s_stride, s_off,
                                 d_stride, d_off, count, fuse_halo);
  KALI_CHECK(box_eligible(src) && box_eligible(dst),
             std::string(what) + ": requires block/star layouts");
  if (fuse_halo) {
    for (int d = 0; d < R; ++d) {
      const int h = dst.halo(d);
      if (h > 0) {
        const int np = dst.view().extent(dst.proc_dim(d));
        for (int k = 0; k < np; ++k) {
          KALI_CHECK(dst.map(d).count(k) >= h,
                     std::string(what) + ": halo wider than a block");
        }
      }
    }
  }
  return c;
}

}  // namespace detail

/// The owner-binning implementation of copy_strided_dim: each side walks
/// its own elements once, computing the unique opposite owner per element.
/// Handles every distribution kind; copy_strided_dim takes it for
/// cyclic/block-cyclic layouts, and it stays callable as the
/// differential-test oracle for the box fast path.
template <class T, int R>
void copy_strided_dim_binned(Context& ctx, const DistArray<T, R>& src,
                             DistArray<T, R>& dst, int dim, int s_stride,
                             int s_off, int d_stride, int d_off, int count) {
  detail::binned_exchange_begin(
      ctx, src, dst,
      detail::strided_copy("copy_strided_dim", src, dst, dim, s_stride, s_off,
                           d_stride, d_off, count))
      .finish();
}

/// Split-phase copy_strided_dim (any layouts: the box path when both
/// arrays are block/star on every dim, the binner otherwise): sends fired,
/// pack and self-overlap already charged inside the wire window; run the
/// work to hide, then finish(), which takes the receives in one batch.
/// See PendingExchange.
template <class T, int R>
[[nodiscard]] PendingExchange copy_strided_dim_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst, int dim,
    int s_stride, int s_off, int d_stride, int d_off, int count) {
  return detail::copy_begin(
      ctx, src, dst,
      detail::strided_copy("copy_strided_dim", src, dst, dim, s_stride, s_off,
                           d_stride, d_off, count));
}

/// Blocking strided copy: copy_strided_dim_begin(...).finish().
template <class T, int R>
void copy_strided_dim(Context& ctx, const DistArray<T, R>& src,
                      DistArray<T, R>& dst, int dim, int s_stride, int s_off,
                      int d_stride, int d_off, int count) {
  copy_strided_dim_begin(ctx, src, dst, dim, s_stride, s_off, d_stride, d_off,
                         count)
      .finish();
}

/// Split-phase copy_strided_dim_halo: the fused remap+halo transfer with
/// its wait point exposed.
template <class T, int R>
[[nodiscard]] PendingExchange copy_strided_dim_halo_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst, int dim,
    int s_stride, int s_off, int d_stride, int d_off, int count) {
  const detail::BoxCopy c =
      detail::strided_box_copy("copy_strided_dim_halo", src, dst, dim,
                               s_stride, s_off, d_stride, d_off, count,
                               /*fuse_halo=*/true);
  return detail::box_exchange_begin(ctx, src, dst, c,
                                    detail::plan_exchange(ctx, src, dst, c));
}

/// copy_strided_dim + dst.exchange_halo() fused into one scheduled exchange
/// — the batched multigrid level switch.  Receive boxes are dst's owned box
/// *expanded by its halo margins* (clipped to the global domain), so every
/// ghost cell whose global index lies in the strided image arrives in the
/// same messages as the owned cells: one redistribution per level switch
/// instead of a remap round followed by a halo round, roughly halving the
/// level-switch message count.  This is
/// copy_strided_dim_halo_begin(...).finish().
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
                           int s_off, int d_stride, int d_off, int count) {
  copy_strided_dim_halo_begin(ctx, src, dst, dim, s_stride, s_off, d_stride,
                              d_off, count)
      .finish();
}

}  // namespace kali
