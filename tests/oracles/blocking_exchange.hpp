// The blocking exchange loops the runtime ran before every exchange became
// one split-phase primitive (detail::exchange_begin, machine/schedule.hpp):
// the oracle the one path is differentially tested against
// (tests/test_async.cpp, tests/test_exchange_fuzz.cpp) and the blocking
// baseline bench_scaling measures the overlapped halo against.
//
// Each form sends what the library sends (same tags, payloads and issue
// order) and receives with plain blocking recv_vec calls, charging as the
// old loops did:
//
//  * each runs through issue_exchange: send in round order (the face
//    halo in ascending direction-code order), charge the pack, receive in
//    the same order and charge the unpack once at the end.
//    blocking_redistribute charges a box self copy before the sends; the
//    strided copies, the binner and all_gather fold their local copies
//    into the final unpack charge, and blocking_gather's executor charges
//    its self copies before the sends.
//
// Values and per-tag ledgers must match the one path exactly; clocks may
// not, since the one path charges each message's unpack right after its
// receive and its local copies inside the wire window.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/schedule.hpp"
#include "runtime/dist_array.hpp"
#include "runtime/inspector.hpp"
#include "runtime/redistribute.hpp"
#include "runtime/remap.hpp"

namespace kali::oracles {

/// The blocking dispatch every dense exchange used: sort and fire all
/// sends in the machine-wide round order, charge the pack compute, then
/// drain all receives and charge the unpack compute.
/// `charge_sends`/`charge_recvs` are thunks so each caller keeps its own
/// accounting.
template <class Out, class In, class SendFn, class RecvFn, class ChargeS,
          class ChargeR>
void issue_exchange(const Context& ctx,
                    std::vector<std::pair<int, Out>>& out,
                    std::vector<std::pair<int, In>>& in, SendFn&& send_one,
                    RecvFn&& recv_one, ChargeS&& charge_sends,
                    ChargeR&& charge_recvs,
                    IssueOrder order = IssueOrder::kRoundSchedule) {
  kali::detail::round_sort(out, ctx.nprocs(), ctx.rank(), order);
  for (auto& [rank, payload] : out) {
    send_one(rank, payload);
  }
  charge_sends();
  kali::detail::round_sort(in, ctx.nprocs(), ctx.rank(), order);
  for (auto& [rank, payload] : in) {
    recv_one(rank, payload);
  }
  charge_recvs();
}

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

}  // namespace detail_blocking

/// The blocking box exchange: `unpacked` seeds the final unpack charge.
template <class T, int R>
void blocking_box(Context& ctx, const DistArray<T, R>& src,
                  DistArray<T, R>& dst, const kali::detail::BoxCopy& c,
                  kali::detail::ExchangePlan<R>& p, double unpacked,
                  IssueOrder order) {
  if (!p.active) {
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
  issue_exchange(
      ctx, p.out, p.in, send_one, recv_one,
      [&] { ctx.compute(packed); }, [&] { ctx.compute(unpacked); }, order);
}

/// The blocking cyclic binner (any layouts): bin by opposite owner, copy
/// the self-overlap while binning, and charge it with the final unpack.
template <class T, int R>
void blocking_binned(Context& ctx, const DistArray<T, R>& src,
                     DistArray<T, R>& dst, const kali::detail::BoxCopy& c,
                     IssueOrder order) {
  const bool in_src = src.participating();
  const bool in_dst = dst.participating();
  if (c.count == 0 || (!in_src && !in_dst)) {
    return;
  }
  const auto ud = static_cast<std::size_t>(c.dim);
  auto step_of = [&](int g, int off, int stride) {
    const int rel = g - off;
    return rel < 0 || rel % stride != 0 || rel / stride >= c.count
               ? -1
               : rel / stride;
  };
  std::vector<std::pair<int, std::vector<T>>> out;
  std::vector<std::pair<int, std::vector<GIndex<R>>>> in;
  double unpacked = 0;
  if (in_src) {
    const std::vector<int> dst_ranks = dst.view().ranks();
    std::vector<std::vector<T>> bins(dst_ranks.size());
    src.for_each_owned([&](GIndex<R> g) {
      const int t = step_of(g[ud], c.s_off, c.s_stride);
      if (t < 0) {
        return;
      }
      GIndex<R> gd = g;
      gd[ud] = c.d_off + t * c.d_stride;
      const std::size_t di = kali::detail::owner_index(dst, gd);
      if (dst_ranks[di] != ctx.rank()) {
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
    const std::vector<int> src_ranks = src.view().ranks();
    std::vector<std::vector<GIndex<R>>> expect(src_ranks.size());
    dst.for_each_owned([&](GIndex<R> g) {
      const int t = step_of(g[ud], c.d_off, c.d_stride);
      if (t >= 0) {
        GIndex<R> gs = g;
        gs[ud] = c.s_off + t * c.s_stride;
        expect[kali::detail::owner_index(src, gs)].push_back(g);
      }
    });
    for (std::size_t pi = 0; pi < expect.size(); ++pi) {
      if (expect[pi].empty()) {
        continue;
      }
      if (src_ranks[pi] == ctx.rank()) {
        for (const GIndex<R>& g : expect[pi]) {
          GIndex<R> gs = g;
          gs[ud] = c.s_off + step_of(g[ud], c.d_off, c.d_stride) * c.s_stride;
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
    ctx.send_span<T>(rank, c.tag, std::span<const T>(vals));
    packed += static_cast<double>(vals.size());
  };
  auto recv_one = [&](int rank, const std::vector<GIndex<R>>& idxs) {
    const auto vals = ctx.recv_vec<T>(rank, c.tag);
    KALI_CHECK(vals.size() == idxs.size(), "oracle bin size mismatch");
    for (std::size_t k = 0; k < vals.size(); ++k) {
      dst.at(idxs[k]) = vals[k];
    }
    unpacked += static_cast<double>(vals.size());
  };
  issue_exchange(
      ctx, out, in, send_one, recv_one, [&] { ctx.compute(packed); },
      [&] { ctx.compute(unpacked); }, order);
}

/// Blocking redistribute: a box self copy is charged first; cyclic layouts
/// take the blocking binner.
template <class T, int R>
void blocking_redistribute(Context& ctx, const DistArray<T, R>& src,
                           DistArray<T, R>& dst,
                           IssueOrder order = IssueOrder::kRoundSchedule) {
  const kali::detail::BoxCopy c = kali::detail::redistribute_copy(src, dst);
  if (!kali::detail::box_eligible(src) || !kali::detail::box_eligible(dst)) {
    blocking_binned(ctx, src, dst, c, order);
    return;
  }
  auto plan = kali::detail::plan_exchange(ctx, src, dst, c);
  ctx.compute(kali::detail::copy_self(src, dst, c, plan));
  blocking_box(ctx, src, dst, c, plan, 0.0, order);
}

/// Blocking strided copy (fused halo with `fuse_halo`, box layouts only):
/// a box self copy is charged with the final unpack; cyclic layouts take
/// the blocking binner.
template <class T, int R>
void blocking_copy_strided_dim(Context& ctx, const DistArray<T, R>& src,
                               DistArray<T, R>& dst, int dim, int s_stride,
                               int s_off, int d_stride, int d_off, int count,
                               bool fuse_halo = false) {
  if (!fuse_halo &&
      (!kali::detail::box_eligible(src) || !kali::detail::box_eligible(dst))) {
    blocking_binned(ctx, src, dst,
                    kali::detail::strided_copy("copy_strided_dim", src, dst,
                                               dim, s_stride, s_off, d_stride,
                                               d_off, count),
                    IssueOrder::kRoundSchedule);
    return;
  }
  const kali::detail::BoxCopy c = kali::detail::strided_box_copy(
      "copy_strided_dim", src, dst, dim, s_stride, s_off, d_stride, d_off,
      count, fuse_halo);
  auto plan = kali::detail::plan_exchange(ctx, src, dst, c);
  const double copied = kali::detail::copy_self(src, dst, c, plan);
  blocking_box(ctx, src, dst, c, plan, copied, IssueOrder::kRoundSchedule);
}

/// The blocking halo exchange on a block/star array, in global indices:
/// each direction vector delta in {-1, 0, +1}^R names one ghost region,
/// sourced from the rank at coord + delta along the dims with a neighbour
/// (an owned face), or at the same coordinate beside the domain boundary
/// (a frame margin).  A peer's pieces travel concatenated in ascending
/// delta-code order, one kTagHalo message per peer.  HaloCorners::kNo
/// keeps the face codes only (one nonzero dim) and issues in ascending
/// code order, whatever `order` says.
template <class T, int R>
void blocking_halo(DistArray<T, R>& a, HaloCorners corners = HaloCorners::kNo,
                   IssueOrder order = IssueOrder::kRoundSchedule) {
  if (!a.participating()) {
    return;
  }
  const bool faces = corners == HaloCorners::kNo;
  if (faces) {
    order = IssueOrder::kPeerOrder;
  }
  Context& ctx = a.context();
  using Box = kali::detail::Box<R>;
  using Pieces = std::vector<Box>;
  std::vector<std::pair<int, Pieces>> out;
  std::vector<std::pair<int, Pieces>> in;
  auto add = [](std::vector<std::pair<int, Pieces>>& v, int rank,
                const Box& b) {
    for (auto& [r, pieces] : v) {
      if (r == rank) {
        pieces.push_back(b);
        return;
      }
    }
    v.emplace_back(rank, Pieces{b});
  };
  // Global index range of `lo`..`hi` planes relative to the owned block.
  auto span_of = [&](Box& b, int d, int lo, int hi) {
    const auto ud = static_cast<std::size_t>(d);
    b.lo[ud] = a.own_lower(d) + lo;
    b.hi[ud] = a.own_lower(d) + hi;
  };
  auto step = [&](std::array<int, kMaxProcDims>& coord, int d, int delta) {
    coord[static_cast<std::size_t>(a.proc_dim(d))] += delta;
  };
  int ncodes = 1;
  for (int d = 0; d < R; ++d) {
    ncodes *= 3;
  }
  for (int code = 0; code < ncodes; ++code) {
    GIndex<R> delta{};
    std::vector<int> nz;
    bool eligible = true;
    int rest = code;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      delta[ud] = rest % 3 - 1;
      rest /= 3;
      if (delta[ud] != 0) {
        eligible = eligible && a.halo(d) > 0;
        nz.push_back(d);
      }
    }
    if (!eligible || nz.empty() || (faces && nz.size() != 1)) {
      continue;
    }
    Box owned_rest;  // delta's zero dims span the owned extent
    for (int d = 0; d < R; ++d) {
      span_of(owned_rest, d, 0, a.local_count(d) - 1);
    }
    // Receive side: the ghost region delta names, from coord + delta|E.
    {
      auto coord = *a.view().coord_of(ctx.rank());
      bool any_e = false;
      Box b = owned_rest;
      for (int d : nz) {
        const int h = a.halo(d);
        const int n = a.local_count(d);
        const int dl = delta[static_cast<std::size_t>(d)];
        span_of(b, d, dl < 0 ? -h : n, dl < 0 ? -1 : n + h - 1);
        if (detail_blocking::neighbor(a, d, dl) >= 0) {
          any_e = true;
          step(coord, d, dl);
        }
      }
      if (any_e && !b.empty()) {
        add(in, a.view().rank_of(coord), b);
      }
    }
    // Send side: every valid E/U choice with at least one E choice names
    // one receiver pulling direction delta from this member.
    for (int mask = 0; mask < (1 << nz.size()); ++mask) {
      auto coord = *a.view().coord_of(ctx.rank());
      bool valid = true;
      bool any_e = false;
      Box b = owned_rest;
      for (std::size_t k = 0; k < nz.size(); ++k) {
        const int d = nz[k];
        const int h = a.halo(d);
        const int n = a.local_count(d);
        const int dl = delta[static_cast<std::size_t>(d)];
        if ((mask & (1 << k)) == 0) {  // E: my owned face, one step back
          valid = valid && detail_blocking::neighbor(a, d, -dl) >= 0;
          step(coord, d, -dl);
          span_of(b, d, dl > 0 ? 0 : n - h, dl > 0 ? h - 1 : n - 1);
          any_e = true;
        } else {  // U: my frame margin, beside the domain boundary
          valid = valid && detail_blocking::neighbor(a, d, dl) < 0;
          span_of(b, d, dl > 0 ? n : -h, dl > 0 ? n + h - 1 : -1);
        }
      }
      if (valid && any_e && !b.empty()) {
        add(out, a.view().rank_of(coord), b);
      }
    }
  }
  double packed = 0;
  double unpacked = 0;
  auto send_one = [&](int rank, const Pieces& pieces) {
    std::vector<T> buf;
    for (const Box& b : pieces) {
      kali::detail::for_each_in_box(
          b, [&](const GIndex<R>& g) { buf.push_back(a.at_halo(g)); });
    }
    ctx.send_span<T>(rank, kTagHalo, std::span<const T>(buf));
    packed += static_cast<double>(buf.size());
  };
  auto recv_one = [&](int rank, const Pieces& pieces) {
    const auto vals = ctx.recv_vec<T>(rank, kTagHalo);
    std::size_t k = 0;
    for (const Box& b : pieces) {
      KALI_CHECK(k + static_cast<std::size_t>(b.volume()) <= vals.size(),
                 "oracle corner pack size mismatch");
      kali::detail::for_each_in_box(
          b, [&](const GIndex<R>& g) { a.frame(g) = vals[k++]; });
    }
    KALI_CHECK(k == vals.size(), "oracle corner pack size mismatch");
    unpacked += static_cast<double>(k);
  };
  issue_exchange(
      ctx, out, in, send_one, recv_one,
      [&] { ctx.compute(packed); }, [&] { ctx.compute(unpacked); }, order);
}

/// The blocking dense all_gather (the path all_gather takes above its
/// tree crossover): contributions sent as-is, the own segment's copy
/// charged with the final unpack.
template <class T>
std::vector<T> blocking_all_gather(
    Context& ctx, const ProcView& v, std::span<const T> mine,
    IssueOrder order = IssueOrder::kRoundSchedule) {
  const int me = v.linear_index_of(ctx.rank());
  std::vector<std::vector<T>> segs(static_cast<std::size_t>(v.count()));
  std::vector<std::pair<int, int>> out;
  std::vector<std::pair<int, int>> in;
  for (int i = 0; i < v.count(); ++i) {
    if (i != me) {
      out.emplace_back(v.rank_at(i), i);
      in.emplace_back(v.rank_at(i), i);
    }
  }
  double merged = static_cast<double>(mine.size());
  auto send_one = [&](int rank, int) {
    ctx.send_span<T>(rank, kTagAllGather, mine);
  };
  auto recv_one = [&](int rank, int gi) {
    auto& seg = segs[static_cast<std::size_t>(gi)];
    seg = ctx.recv_vec<T>(rank, kTagAllGather);
    merged += static_cast<double>(seg.size());
  };
  issue_exchange(
      ctx, out, in, send_one, recv_one, [] {},
      [&] { ctx.compute(merged); }, order);
  segs[static_cast<std::size_t>(me)].assign(mine.begin(), mine.end());
  std::vector<T> result;
  for (const auto& seg : segs) {
    result.insert(result.end(), seg.begin(), seg.end());
  }
  return result;
}

/// The blocking inspector/executor gather: GatherPlan::build's request
/// exchange and one GatherPlan::execute, as blocking loops.  The executor
/// charges its self copies before the sends.  out[i] is A(wants[i]).
template <class T>
std::vector<T> blocking_gather(const DistArray1<T>& A,
                               std::span<const int> wants) {
  std::vector<T> result(wants.size());
  if (!A.participating()) {
    return result;
  }
  Context& ctx = A.context();
  const std::vector<int> peers = A.view().ranks();
  const std::size_t np = peers.size();
  std::vector<std::vector<int>> requests(np);
  std::vector<std::vector<std::size_t>> slots(np);
  for (std::size_t w = 0; w < wants.size(); ++w) {
    const int owner = A.view().rank_of({A.map(0).owner(wants[w]), 0, 0});
    const auto pi = static_cast<std::size_t>(A.view().linear_index_of(owner));
    requests[pi].push_back(wants[w]);
    slots[pi].push_back(w);
  }
  ctx.compute(static_cast<double>(wants.size()));
  std::vector<std::uint8_t> presence(np, 0);
  for (std::size_t pi = 0; pi < np; ++pi) {
    presence[pi] = peers[pi] != ctx.rank() && !requests[pi].empty() ? 1 : 0;
  }
  const std::vector<std::uint8_t> matrix =
      all_gather(ctx, A.view(), std::span<const std::uint8_t>(presence));
  const auto my_pi =
      static_cast<std::size_t>(A.view().linear_index_of(ctx.rank()));

  // Inspector: exchange the non-empty request lists, charging nothing.
  std::vector<std::vector<int>> send_indices(np);
  std::vector<std::pair<int, std::size_t>> out;
  std::vector<std::pair<int, std::size_t>> in;
  for (std::size_t pi = 0; pi < np; ++pi) {
    if (peers[pi] == ctx.rank()) {
      send_indices[pi] = requests[pi];
      continue;
    }
    if (presence[pi] != 0) {
      out.emplace_back(peers[pi], pi);
    }
    if (matrix[pi * np + my_pi] != 0) {
      in.emplace_back(peers[pi], pi);
    }
  }
  issue_exchange(
      ctx, out, in,
      [&](int rank, std::size_t pi) {
        ctx.send_span<int>(rank, kTagInspReq,
                           std::span<const int>(requests[pi]));
      },
      [&](int rank, std::size_t pi) {
        send_indices[pi] = ctx.recv_vec<int>(rank, kTagInspReq);
      },
      [] {}, [] {});

  // Executor.
  out.clear();
  in.clear();
  for (std::size_t pi = 0; pi < np; ++pi) {
    if (peers[pi] == ctx.rank()) {
      for (std::size_t k = 0; k < slots[pi].size(); ++k) {
        result[slots[pi][k]] = A.at({send_indices[pi][k]});
      }
      ctx.compute(static_cast<double>(slots[pi].size()));
      continue;
    }
    if (!send_indices[pi].empty()) {
      out.emplace_back(peers[pi], pi);
    }
    if (!slots[pi].empty()) {
      in.emplace_back(peers[pi], pi);
    }
  }
  double packed = 0;
  double unpacked = 0;
  issue_exchange(
      ctx, out, in,
      [&](int rank, std::size_t pi) {
        std::vector<T> buf;
        for (int gi : send_indices[pi]) {
          buf.push_back(A.at({gi}));
        }
        ctx.send_span<T>(rank, kTagInspData, std::span<const T>(buf));
        packed += static_cast<double>(buf.size());
      },
      [&](int rank, std::size_t pi) {
        const auto vals = ctx.recv_vec<T>(rank, kTagInspData);
        KALI_CHECK(vals.size() == slots[pi].size(), "oracle executor size");
        for (std::size_t k = 0; k < vals.size(); ++k) {
          result[slots[pi][k]] = vals[k];
        }
        unpacked += static_cast<double>(vals.size());
      },
      [&] { ctx.compute(packed); }, [&] { ctx.compute(unpacked); });
  return result;
}

}  // namespace kali::oracles
