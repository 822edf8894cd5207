// The blocking exchange loops the runtime ran before every face halo and box
// exchange became one split-phase path: the oracle the one path is
// differentially tested against (tests/test_async.cpp) and the blocking
// baseline bench_scaling measures the overlapped halo against.
//
// Each form sends what the library sends (same tags, payloads and issue
// order) and receives with plain blocking recv_vec calls, charging as the
// old loops did:
//
//  * blocking_halo: per dim, send both owned faces and charge the pack;
//    then per dim, receive both ghost faces and charge their unpack
//    together.
//  * the box forms: plan with detail::plan_exchange, then send in round
//    order, charge the pack, receive in round order and charge the unpack
//    once at the end.  redistribute charges its self copy before the
//    sends; the strided copies fold it into the final unpack charge.
//
// Values and per-tag ledgers must match the one path exactly; clocks may
// not, since the one path charges each message's unpack right after its
// receive and copies the self-overlap inside the wire window.
#pragma once

#include <span>
#include <vector>

#include "machine/context.hpp"
#include "machine/schedule.hpp"
#include "runtime/dist_array.hpp"
#include "runtime/redistribute.hpp"
#include "runtime/remap.hpp"

namespace kali::oracles {

namespace detail_blocking {

/// Grid neighbour of this member one step along dim d's grid dimension,
/// or -1 at the domain boundary.
template <class T, int R>
int neighbor(const DistArray<T, R>& a, int d, int delta) {
  const int pd = a.proc_dim(d);
  auto coord = *a.view().coord_of(a.context().rank());
  const auto upd = static_cast<std::size_t>(pd);
  coord[upd] += delta;
  if (coord[upd] < 0 || coord[upd] >= a.view().extent(pd)) {
    return -1;
  }
  return a.view().rank_of(coord);
}

/// The face of thickness halo(d) at `side` (0: low) along d, over the owned
/// extent of the other dims: owned planes or ghost planes, global indices.
template <class T, int R>
kali::detail::Box<R> face(const DistArray<T, R>& a, int d, int side,
                          bool owned_side) {
  kali::detail::Box<R> b = kali::detail::owned_box(a);
  const auto ud = static_cast<std::size_t>(d);
  const int h = a.halo(d);
  const int lo = b.lo[ud];
  const int hi = b.hi[ud];
  if (owned_side) {
    b.lo[ud] = side == 0 ? lo : hi - h + 1;
    b.hi[ud] = side == 0 ? lo + h - 1 : hi;
  } else {
    b.lo[ud] = side == 0 ? lo - h : hi + 1;
    b.hi[ud] = side == 0 ? lo - 1 : hi + h;
  }
  return b;
}

}  // namespace detail_blocking

/// The blocking face-mode halo exchange (HaloCorners::kNo).
template <class T, int R>
void blocking_halo(DistArray<T, R>& a) {
  if (!a.participating()) {
    return;
  }
  Context& ctx = a.context();
  for (int d = 0; d < R; ++d) {
    if (a.halo(d) == 0) {
      continue;
    }
    double packed = 0;
    for (int side = 0; side < 2; ++side) {
      const int peer = detail_blocking::neighbor(a, d, side == 0 ? -1 : +1);
      const auto box = detail_blocking::face(a, d, side, /*owned_side=*/true);
      if (peer < 0 || box.empty()) {
        continue;
      }
      std::vector<T> buf;
      kali::detail::for_each_in_box(
          box, [&](const GIndex<R>& g) { buf.push_back(a.at(g)); });
      // Side 0's owned face travels low-ward: it fills the left
      // neighbour's high ghost face (tag 4d + 1).
      ctx.send_span<T>(peer, kTagHaloBase + 4 * d + 1 - side,
                       std::span<const T>(buf));
      packed += static_cast<double>(buf.size());
    }
    ctx.compute(packed);
  }
  for (int d = 0; d < R; ++d) {
    if (a.halo(d) == 0) {
      continue;
    }
    double unpacked = 0;
    for (int side = 0; side < 2; ++side) {
      const int peer = detail_blocking::neighbor(a, d, side == 0 ? -1 : +1);
      const auto box = detail_blocking::face(a, d, side, /*owned_side=*/false);
      if (peer < 0 || box.empty()) {
        continue;
      }
      const std::vector<T> in = ctx.recv_vec<T>(peer, kTagHaloBase + 4 * d + side);
      std::size_t k = 0;
      kali::detail::for_each_in_box(
          box, [&](const GIndex<R>& g) { a.frame(g) = in.at(k++); });
      KALI_CHECK(k == in.size(), "oracle halo size mismatch");
      unpacked += static_cast<double>(k);
    }
    ctx.compute(unpacked);
  }
}

/// The blocking box exchange: `unpacked` seeds the final unpack charge.
template <class T, int R>
void blocking_box(Context& ctx, const DistArray<T, R>& src,
                  DistArray<T, R>& dst, const kali::detail::BoxCopy& c,
                  kali::detail::ExchangePlan<R>& p, double unpacked,
                  IssueOrder order) {
  if (p.members.empty()) {
    return;
  }
  std::vector<T> buf;
  double packed = 0;
  auto send_one = [&](int rank, const kali::detail::Box<R>& slab) {
    kali::detail::pack_slab(src, c, slab, buf);
    ctx.send_span<T>(rank, c.tag, std::span<const T>(buf));
    packed += static_cast<double>(buf.size());
  };
  auto recv_one = [&](int rank, const kali::detail::Box<R>& slab) {
    const auto vals = ctx.recv_vec<T>(rank, c.tag);
    unpacked +=
        kali::detail::unpack_slab(dst, c, slab, std::span<const T>(vals));
  };
  kali::detail::issue_exchange(
      p.members, ctx.rank(), p.out, p.in, send_one, recv_one,
      [&] { ctx.compute(packed); }, [&] { ctx.compute(unpacked); }, order);
}

/// Blocking redistribute between box layouts: self copy charged first.
template <class T, int R>
void blocking_redistribute(Context& ctx, const DistArray<T, R>& src,
                           DistArray<T, R>& dst,
                           IssueOrder order = IssueOrder::kRoundSchedule) {
  const kali::detail::BoxCopy c = kali::detail::redistribute_copy(src, dst);
  auto plan = kali::detail::plan_exchange(ctx, src, dst, c);
  ctx.compute(kali::detail::copy_self(src, dst, c, plan));
  blocking_box(ctx, src, dst, c, plan, 0.0, order);
}

/// Blocking strided copy between box layouts (fused halo with `fuse_halo`):
/// self copy charged with the final unpack.
template <class T, int R>
void blocking_copy_strided_dim(Context& ctx, const DistArray<T, R>& src,
                               DistArray<T, R>& dst, int dim, int s_stride,
                               int s_off, int d_stride, int d_off, int count,
                               bool fuse_halo = false) {
  const kali::detail::BoxCopy c = kali::detail::strided_box_copy(
      "copy_strided_dim", src, dst, dim, s_stride, s_off, d_stride, d_off,
      count, fuse_halo);
  auto plan = kali::detail::plan_exchange(ctx, src, dst, c);
  const double copied = kali::detail::copy_self(src, dst, c, plan);
  blocking_box(ctx, src, dst, c, plan, copied, IssueOrder::kRoundSchedule);
}

}  // namespace kali::oracles
