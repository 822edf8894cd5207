// Redistribution between arbitrary distributions of the same global array
// — the communication behind "a variety of distribution patterns can be
// tried by simple modifications of this program" (paper §2) and behind
// transpose-style tensor product algorithms (distributed FFT, ADI direction
// switch).
//
// Protocol: no counts are exchanged and no empty messages are sent.  Both
// sides of every transfer derive the pairing analytically from the
// replicated descriptors — the sender knows which destination ranks need a
// piece of its slab, and each receiver knows which source ranks hold a
// piece of *its* slab, so a message travels exactly between the rank pairs
// whose owned index sets intersect.  Payloads carry raw values only: sender
// and receiver enumerate the shared index set in the same row-major global
// order, so no per-element index metadata is needed on the wire.
//
// Two paths implement that protocol:
//
//  * Box intersection (block/star dims only): each rank's owned index set
//    is an axis-aligned box, so the (src-rank, dst-rank) overlap is itself
//    a box computed directly from the DimMap descriptors in O(1) per dim.
//    Peers are enumerated from per-dim owner-coordinate ranges — O(peers),
//    independent of both the element count and the machine size — and
//    payloads are packed as contiguous row-major slabs.  It is the identity
//    case of detail::BoxCopy, whose one planner (plan_exchange) and one
//    begin (box_exchange_begin) copy_strided_dim (runtime/remap.hpp)
//    shares.
//
//  * Per-dim owner binning (any cyclic/block-cyclic dim): each side walks
//    its own elements once, computing the unique opposite owner rank in
//    O(R) per element (owner() per dim + one rank_of), and bins values by
//    peer.  O(local n + peers) — never the O(local n × P) all-pairs
//    ownership scan of the original implementation, which survives only as
//    the test oracle tests/oracles/redistribute_reference.hpp.  It is the
//    identity case of detail::binned_exchange_begin, the one cyclic binner
//    that copy_strided_dim shares too.
//
// Both paths are split-phase on the one primitive of machine/schedule.hpp
// (detail::exchange_begin): redistribute_begin() picks the path, and the
// blocking redistribute() is redistribute_begin(...).finish().
//
// A rank's overlap with *itself* never touches the network: all paths peel
// the self-intersection off into a direct local copy (one op per element),
// made inside the wire window once the sends are out — a self-message
// would charge send/recv overhead plus wire latency for data the rank
// already owns, and MachineStats::self_msgs(kTagRedistData) lets tests
// assert none slip through.
//
// A line pass and the redistribution after it — fft2's row FFTs and its
// transpose, an ADI sweep and its direction switch — pipeline through
// redistribute_lines(): the pass runs in kLineSlices strided slices of
// lines, and each slice's share of the exchange goes on the wire as soon
// as its lines are done, so the transpose hides behind the lines still to
// compute.  The exchange is planned once; each slice cuts the plan's slabs
// to its lines.
//
// Remote messages are issued through the machine-wide round schedule of
// machine/schedule.hpp (XOR pairwise exchange for a power-of-two machine,
// latin-square ordering otherwise): a pair's round depends only on the two
// machine ranks, and each round restricted to the ranks of both views is
// still a matching, so with MachineConfig::link_contention no injection or
// ejection link is oversubscribed and no member list is built.
// redistribute() and redistribute_begin() also take IssueOrder::kPeerOrder,
// which keeps the raw enumeration order: the naive baseline
// bench_redistribute compares the schedule against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "machine/message.hpp"  // kTagRedistData (reserved-tag registry)
#include "machine/schedule.hpp"
#include "runtime/dist_array.hpp"

namespace kali {

/// Slices a pipelined line pass is cut into (redistribute_lines): slice k
/// holds the lines r = k (mod kLineSlices).  More slices hide more of the
/// redistribution behind the line work, but each costs one more message,
/// pack and edge-ledger entry per peer.
inline constexpr int kLineSlices = 4;

namespace detail {

/// Row-major linear index (within A.view()) of the rank owning g,
/// computable by any processor, member or not — descriptors are replicated.
/// Ownership is unique: every grid dimension of the view is bound to
/// exactly one distributed array dimension.  One owner() per dim — the
/// O(R) inner step of the binning path.
template <class T, int R>
std::size_t owner_index(const DistArray<T, R>& A, GIndex<R> g) {
  std::array<int, kMaxProcDims> coord{};
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    if (A.proc_dim(d) >= 0) {
      coord[static_cast<std::size_t>(A.proc_dim(d))] = A.map(d).owner(g[ud]);
    }
  }
  std::size_t lin = 0;
  for (int pd = 0; pd < A.view().ndims(); ++pd) {
    lin = lin * static_cast<std::size_t>(A.view().extent(pd)) +
          static_cast<std::size_t>(coord[static_cast<std::size_t>(pd)]);
  }
  return lin;
}

/// Inclusive per-dimension index box; hi < lo along any dim means empty.
template <int R>
struct Box {
  GIndex<R> lo{};
  GIndex<R> hi{};

  [[nodiscard]] bool empty() const {
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (hi[ud] < lo[ud]) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::int64_t volume() const {
    std::int64_t v = 1;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (hi[ud] < lo[ud]) {
        return 0;
      }
      v *= hi[ud] - lo[ud] + 1;
    }
    return v;
  }
};

/// Visit every global index of a (nonempty) box in row-major order — the
/// wire order both endpoints of a slab transfer agree on.
template <int R, class Fn>
void for_each_in_box(const Box<R>& b, Fn fn) {
  GIndex<R> g = b.lo;
  for (;;) {
    fn(g);
    int d = R - 1;
    for (; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      if (++g[ud] <= b.hi[ud]) {
        break;
      }
      g[ud] = b.lo[ud];
    }
    if (d < 0) {
      return;
    }
  }
}

/// True when every dimension of A is block or star, i.e. every rank's owned
/// index set is an axis-aligned box.
template <class T, int R>
bool box_eligible(const DistArray<T, R>& A) {
  for (int d = 0; d < R; ++d) {
    if (A.dist_kind(d) != DistKind::kBlock && A.dist_kind(d) != DistKind::kStar) {
      return false;
    }
  }
  return true;
}

/// The calling member's owned box (block/star dims; paper's lower/upper).
template <class T, int R>
Box<R> owned_box(const DistArray<T, R>& A) {
  Box<R> b;
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    b.lo[ud] = A.own_lower(d);
    b.hi[ud] = A.own_upper(d);
  }
  return b;
}

/// Floor/ceil division for positive divisors and any-sign dividends.
inline int floor_div(int a, int b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
inline int ceil_div(int a, int b) {
  return a >= 0 ? (a + b - 1) / b : -((-a) / b);
}

/// Inclusive interval of transfer steps t; hi < lo means empty.
struct TRange {
  int lo = 0;
  int hi = -1;

  [[nodiscard]] bool empty() const { return hi < lo; }
};

/// Steps t with off + t * stride inside the global range [glo, ghi],
/// clipped to [0, tmax].
inline TRange strided_steps(int glo, int ghi, int off, int stride, int tmax) {
  TRange r;
  r.lo = std::max(0, ceil_div(glo - off, stride));
  r.hi = std::min(tmax, floor_div(ghi - off, stride));
  return r;
}

/// One box-layout exchange: along `dim`,
///   dst[d_off + t * d_stride] = src[s_off + t * s_stride],  t = 0..count-1,
/// identity on every other dim.  redistribute is the identity copy along
/// dim 0; the multigrid level switches (copy_strided_dim) stride it.  With
/// `fuse_halo` each receiver's set is its owned box expanded by dst's halo
/// margins (clipped to the domain) and written through frame(), so ghost
/// cells arrive in the same messages as owned cells.
struct BoxCopy {
  const char* what;  ///< operation name for error messages
  int tag;
  int dim = 0;
  int s_stride = 1;
  int s_off = 0;
  int d_stride = 1;
  int d_off = 0;
  int count = 0;
  bool fuse_halo = false;
};

/// Visit every rank of box-eligible `A` whose receive set intersects the
/// transfer set (`within`'s ranges on off-dims, steps `tr` through
/// off + t * stride along `dim`), passing the rank and the shared slab: a
/// box whose off-dim slots are global indices and whose `dim` slot holds
/// the shared steps.  O(peers): per grid dimension only the owner
/// coordinates of the range bounds are enumerated; ranks whose block skips
/// every strided step (stride larger than the block) are filtered out,
/// identically on both endpoints.  With `expand_halo`, each rank's receive
/// set is its owned block expanded by A's halo margins and clipped to the
/// domain (one extra owner coordinate per side covers the expansion — the
/// caller guarantees no halo is wider than a block); without it, exactly
/// the owned blocks.
template <class T, int R, class Fn>
void strided_peer_walk(const DistArray<T, R>& A, const Box<R>& within,
                       int dim, TRange tr, int off, int stride,
                       bool expand_halo, Fn fn) {
  const int nd = A.view().ndims();
  std::array<int, kMaxProcDims> adim{};  // grid dim -> bound array dim
  for (int d = 0; d < R; ++d) {
    if (A.proc_dim(d) >= 0) {
      adim[static_cast<std::size_t>(A.proc_dim(d))] = d;
    }
  }
  std::array<int, kMaxProcDims> clo{};
  std::array<int, kMaxProcDims> chi{};
  for (int pd = 0; pd < nd; ++pd) {
    const auto upd = static_cast<std::size_t>(pd);
    const int d = adim[upd];
    if (d == dim) {
      clo[upd] = A.map(d).owner(off + tr.lo * stride);
      chi[upd] = A.map(d).owner(off + tr.hi * stride);
    } else {
      const auto ud = static_cast<std::size_t>(d);
      clo[upd] = A.map(d).owner(within.lo[ud]);
      chi[upd] = A.map(d).owner(within.hi[ud]);
    }
    if (expand_halo && A.halo(d) > 0) {  // expansion reaches one owner more
      clo[upd] = std::max(0, clo[upd] - 1);
      chi[upd] = std::min(A.view().extent(pd) - 1, chi[upd] + 1);
    }
  }
  const auto udim = static_cast<std::size_t>(dim);
  std::array<int, kMaxProcDims> c = clo;
  for (;;) {
    Box<R> b = within;  // star dims of A: peer holds the whole extent
    b.lo[udim] = tr.lo;
    b.hi[udim] = tr.hi;
    bool nonempty = true;
    for (int pd = 0; pd < nd && nonempty; ++pd) {
      const auto upd = static_cast<std::size_t>(pd);
      const int d = adim[upd];
      const auto ud = static_cast<std::size_t>(d);
      const int h = expand_halo ? A.halo(d) : 0;
      const int blo = std::max(0, A.map(d).block_lower(c[upd]) - h);
      const int bhi =
          std::min(A.extent(d) - 1, A.map(d).block_upper(c[upd]) + h);
      if (d == dim) {
        b.lo[ud] = std::max(b.lo[ud], ceil_div(blo - off, stride));
        b.hi[ud] = std::min(b.hi[ud], floor_div(bhi - off, stride));
      } else {
        b.lo[ud] = std::max(within.lo[ud], blo);
        b.hi[ud] = std::min(within.hi[ud], bhi);
      }
      nonempty = b.lo[ud] <= b.hi[ud];
    }
    if (nonempty) {
      fn(A.view().rank_of(c), b);
    }
    int pd = nd - 1;
    for (; pd >= 0; --pd) {
      const auto upd = static_cast<std::size_t>(pd);
      if (++c[upd] <= chi[upd]) {
        break;
      }
      c[upd] = clo[upd];
    }
    if (pd < 0) {
      return;
    }
  }
}

/// Visit a slab of `c` element by element in the agreed row-major wire
/// order, passing each element's source and destination global index.  The
/// strided mapping runs once per row of the last dim, leaving the
/// per-element loop a plain counted one.
template <int R, class Fn>
void for_each_slab_element(const Box<R>& slab, const BoxCopy& c, Fn fn) {
  constexpr auto last = static_cast<std::size_t>(R - 1);
  const auto ud = static_cast<std::size_t>(c.dim);
  const int n = slab.hi[last] - slab.lo[last] + 1;
  const int s_step = ud == last ? c.s_stride : 1;
  const int d_step = ud == last ? c.d_stride : 1;
  Box<R> rows = slab;
  rows.hi[last] = rows.lo[last];
  for_each_in_box(rows, [&](GIndex<R> gs) {
    GIndex<R> gd = gs;
    gs[ud] = c.s_off + gs[ud] * c.s_stride;
    gd[ud] = c.d_off + gd[ud] * c.d_stride;
    for (int k = 0; k < n; ++k, gs[last] += s_step, gd[last] += d_step) {
      fn(gs, gd);
    }
  });
}

/// Who exchanges what in one BoxCopy, derived analytically by every member
/// from the replicated descriptors: remote slabs in each direction (no
/// self-messages) and the self-overlap slab this rank copies locally (each
/// peer, this rank included, shares at most one slab).  An inactive
/// exchange (count 0, or this rank in neither view) begins nothing.  Slabs
/// are in the form strided_peer_walk hands out.
template <int R>
struct ExchangePlan {
  bool active = false;  ///< this rank takes part in the exchange
  std::vector<std::pair<int, Box<R>>> out;  ///< (dst rank, slab) to send
  std::vector<std::pair<int, Box<R>>> in;   ///< (src rank, slab) to receive
  std::optional<Box<R>> self;               ///< copied locally, never sent
};

/// The one planner behind every box exchange.
template <class T, int R>
ExchangePlan<R> plan_exchange(const Context& ctx, const DistArray<T, R>& src,
                              const DistArray<T, R>& dst, const BoxCopy& c) {
  ExchangePlan<R> p;
  const bool in_src = src.participating();
  const bool in_dst = dst.participating();
  if (c.count == 0 || (!in_src && !in_dst)) {
    return p;
  }
  p.active = true;
  const auto ud = static_cast<std::size_t>(c.dim);
  if (in_src) {
    const Box<R> mine = owned_box(src);
    const TRange tm = strided_steps(mine.lo[ud], mine.hi[ud], c.s_off,
                                    c.s_stride, c.count - 1);
    if (!mine.empty() && !tm.empty()) {
      strided_peer_walk(dst, mine, c.dim, tm, c.d_off, c.d_stride,
                        c.fuse_halo, [&](int rank, const Box<R>& b) {
                          if (rank != ctx.rank()) {
                            p.out.emplace_back(rank, b);
                          }
                        });
    }
  }
  if (in_dst) {
    Box<R> mine = owned_box(dst);
    if (c.fuse_halo) {
      for (int d = 0; d < R; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        mine.lo[sd] = std::max(0, mine.lo[sd] - dst.halo(d));
        mine.hi[sd] = std::min(dst.extent(d) - 1, mine.hi[sd] + dst.halo(d));
      }
    }
    const TRange tm = strided_steps(mine.lo[ud], mine.hi[ud], c.d_off,
                                    c.d_stride, c.count - 1);
    if (!mine.empty() && !tm.empty()) {
      strided_peer_walk(src, mine, c.dim, tm, c.s_off, c.s_stride,
                        /*expand_halo=*/false,
                        [&](int rank, const Box<R>& b) {
                          if (rank == ctx.rank()) {
                            p.self = b;
                          } else {
                            p.in.emplace_back(rank, b);
                          }
                        });
    }
  }
  return p;
}

template <class T, int R>
void pack_slab(const DistArray<T, R>& src, const BoxCopy& c,
               const Box<R>& slab, std::vector<T>& buf) {
  buf.clear();
  buf.reserve(static_cast<std::size_t>(slab.volume()));
  for_each_slab_element(slab, c, [&](const GIndex<R>& gs, const GIndex<R>&) {
    buf.push_back(src.at(gs));
  });
}

/// Unpack one received slab; returns the element count for the charge.
template <class T, int R>
double unpack_slab(DistArray<T, R>& dst, const BoxCopy& c, const Box<R>& slab,
                   std::span<const T> vals) {
  KALI_CHECK(vals.size() == static_cast<std::size_t>(slab.volume()),
             std::string(c.what) + ": slab size mismatch");
  // Owned cells through at(); a fused halo also writes ghosts via frame().
  std::size_t k = 0;
  if (c.fuse_halo) {
    for_each_slab_element(slab, c, [&](const GIndex<R>&, const GIndex<R>& gd) {
      dst.frame(gd) = vals[k++];
    });
  } else {
    for_each_slab_element(slab, c, [&](const GIndex<R>&, const GIndex<R>& gd) {
      dst.at(gd) = vals[k++];
    });
  }
  return static_cast<double>(k);
}

/// Copy the plan's self-overlap locally; returns the element count for the
/// charge.
template <class T, int R>
double copy_self(const DistArray<T, R>& src, DistArray<T, R>& dst,
                 const BoxCopy& c, const ExchangePlan<R>& p) {
  if (!p.self) {
    return 0.0;
  }
  if (c.fuse_halo) {
    for_each_slab_element(*p.self, c,
                          [&](const GIndex<R>& gs, const GIndex<R>& gd) {
                            dst.frame(gd) = src.at(gs);
                          });
  } else {
    for_each_slab_element(*p.self, c,
                          [&](const GIndex<R>& gs, const GIndex<R>& gd) {
                            dst.at(gd) = src.at(gs);
                          });
  }
  return static_cast<double>(p.self->volume());
}

/// A planned box exchange begun: the sends fired in round order (raw
/// enumeration order under kPeerOrder), the pack and the self-overlap copy
/// charged inside the wire window; finish() unpacks each incoming slab
/// straight from its payload.
template <class T, int R>
[[nodiscard]] PendingExchange box_exchange_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst,
    const BoxCopy& c, ExchangePlan<R> p,
    IssueOrder order = IssueOrder::kRoundSchedule) {
  if (!p.active) {
    return {};
  }
  std::vector<T> buf;
  double packed = 0;
  PendingExchange ex = exchange_begin<T>(
      ctx, c.tag, std::move(p.out), std::move(p.in),
      [&](const Box<R>& slab) {
        pack_slab(src, c, slab, buf);
        packed += static_cast<double>(buf.size());
        return std::span<const T>(buf);
      },
      [&dst, c](const Box<R>& slab, const std::vector<T>& vals) {
        return unpack_slab(dst, c, slab, std::span<const T>(vals));
      },
      order);
  ctx.compute(packed);
  ctx.compute(copy_self(src, dst, c, p));
  return ex;
}

/// The cyclic binner behind every exchange with a cyclic or block-cyclic
/// dim, begun: the BoxCopy's transfer on any layouts.  Each side walks its
/// own elements once in row-major order, keeps those inside the strided
/// transfer set and bins them by the unique opposite owner (O(R) per
/// element), so the per-peer value sequences agree element for element
/// without index metadata or a count exchange.  The bins go out as they
/// are, charged as the pack; elements whose source and destination owner
/// are both this rank are then copied locally inside the wire window.
template <class T, int R>
[[nodiscard]] PendingExchange binned_exchange_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst,
    const BoxCopy& c, IssueOrder order = IssueOrder::kRoundSchedule) {
  const bool in_src = src.participating();
  const bool in_dst = dst.participating();
  if (c.count == 0 || (!in_src && !in_dst)) {
    return {};
  }
  const auto ud = static_cast<std::size_t>(c.dim);
  // Step t of a global index along dim under (off, stride), or -1 when the
  // index lies outside the transfer set.
  auto step_of = [&](int g, int off, int stride) {
    const int rel = g - off;
    return rel < 0 || rel % stride != 0 || rel / stride >= c.count
               ? -1
               : rel / stride;
  };

  std::vector<std::pair<int, std::vector<T>>> out;
  std::vector<std::pair<int, std::vector<GIndex<R>>>> in;
  std::vector<GIndex<R>> self;  // destination indices copied locally
  if (in_src) {
    const auto ndst = static_cast<std::size_t>(dst.view().count());
    const std::size_t self_di =
        in_dst ? static_cast<std::size_t>(dst.view().linear_index_of(ctx.rank()))
               : ndst;  // sentinel: matches no bin
    std::vector<std::vector<T>> bins(ndst);
    src.for_each_owned([&](GIndex<R> g) {
      const int t = step_of(g[ud], c.s_off, c.s_stride);
      if (t < 0) {
        return;
      }
      GIndex<R> gd = g;
      gd[ud] = c.d_off + t * c.d_stride;
      const std::size_t di = owner_index(dst, gd);
      if (di != self_di) {
        bins[di].push_back(src.at(g));
      }
    });
    for (std::size_t pi = 0; pi < bins.size(); ++pi) {
      if (!bins[pi].empty()) {
        out.emplace_back(dst.view().rank_at(static_cast<int>(pi)),
                         std::move(bins[pi]));
      }
    }
  }
  if (in_dst) {
    std::vector<std::vector<GIndex<R>>> expect(
        static_cast<std::size_t>(src.view().count()));
    dst.for_each_owned([&](GIndex<R> g) {
      const int t = step_of(g[ud], c.d_off, c.d_stride);
      if (t >= 0) {
        GIndex<R> gs = g;
        gs[ud] = c.s_off + t * c.s_stride;
        expect[owner_index(src, gs)].push_back(g);
      }
    });
    const std::size_t self_si =
        in_src ? static_cast<std::size_t>(src.view().linear_index_of(ctx.rank()))
               : expect.size();  // sentinel: matches no bin
    for (std::size_t pi = 0; pi < expect.size(); ++pi) {
      if (pi == self_si) {
        self = std::move(expect[pi]);
      } else if (!expect[pi].empty()) {
        in.emplace_back(src.view().rank_at(static_cast<int>(pi)),
                        std::move(expect[pi]));
      }
    }
  }
  double packed = 0;
  PendingExchange ex = exchange_begin<T>(
      ctx, c.tag, std::move(out), std::move(in),
      [&](const std::vector<T>& vals) {
        packed += static_cast<double>(vals.size());
        return std::span<const T>(vals);
      },
      [&dst, what = c.what](const std::vector<GIndex<R>>& idxs,
                            const std::vector<T>& vals) {
        KALI_CHECK(vals.size() == idxs.size(),
                   std::string(what) + ": bin size mismatch");
        for (std::size_t k = 0; k < vals.size(); ++k) {
          dst.at(idxs[k]) = vals[k];
        }
        return static_cast<double>(vals.size());
      },
      order);
  ctx.compute(packed);
  for (const GIndex<R>& g : self) {
    GIndex<R> gs = g;
    gs[ud] = c.s_off + step_of(g[ud], c.d_off, c.d_stride) * c.s_stride;
    dst.at(g) = src.at(gs);
  }
  ctx.compute(static_cast<double>(self.size()));
  return ex;
}

/// The one begin of a BoxCopy's transfer: the box exchange when both
/// arrays have box layouts, the cyclic binner otherwise.
template <class T, int R>
[[nodiscard]] PendingExchange copy_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst,
    const BoxCopy& c, IssueOrder order = IssueOrder::kRoundSchedule) {
  if (!box_eligible(src) || !box_eligible(dst)) {
    return binned_exchange_begin(ctx, src, dst, c, order);
  }
  return box_exchange_begin(ctx, src, dst, c, plan_exchange(ctx, src, dst, c),
                            order);
}

/// The identity BoxCopy of a redistribute from src to dst, walked along
/// `dim`.
template <class T, int R>
BoxCopy redistribute_copy(const DistArray<T, R>& src,
                          const DistArray<T, R>& dst, int dim = 0) {
  for (int d = 0; d < R; ++d) {
    KALI_CHECK(src.extent(d) == dst.extent(d), "redistribute: extent mismatch");
  }
  return BoxCopy{"redistribute", kTagRedistData, dim, 1, 0, 1, 0,
                 src.extent(dim), /*fuse_halo=*/false};
}

/// Slice k of a line pass's identity exchange (`c` along c.dim, planned
/// as `p`): the strided BoxCopy of lines r = k (mod kLineSlices) and p's
/// slabs cut to those lines — O(1) per peer, the plan plan_exchange would
/// build for the slice.  A peer whose slab holds none of the slice's lines
/// drops out, so no empty message is sent.
template <int R>
std::pair<BoxCopy, ExchangePlan<R>> line_slice(BoxCopy c, ExchangePlan<R> p,
                                               int k) {
  const auto ud = static_cast<std::size_t>(c.dim);
  auto cut = [&](Box<R>& b) {
    b.lo[ud] = ceil_div(b.lo[ud] - k, kLineSlices);
    b.hi[ud] = floor_div(b.hi[ud] - k, kLineSlices);
    return b.empty();
  };
  for (auto* slabs : {&p.out, &p.in}) {
    std::ranges::for_each(*slabs, cut, &std::pair<int, Box<R>>::second);
    std::erase_if(*slabs, [](const auto& e) { return e.second.empty(); });
  }
  if (p.self && cut(*p.self)) {
    p.self.reset();
  }
  c.s_stride = c.d_stride = kLineSlices;
  c.s_off = c.d_off = k;
  c.count = std::max(0, ceil_div(c.count - k, kLineSlices));
  return {c, std::move(p)};
}

}  // namespace detail

/// Split-phase redistribute: copy src's contents into dst (same global
/// extents, any distributions / views — the views may even be disjoint
/// rank sets).  Collective over the union of both views' members.  Box
/// layouts take the box exchange, cyclic layouts the binner; either way
/// the sends are fired and the pack and self-overlap copy charged inside
/// the wire window.  Run the work to hide, then finish(), which takes the
/// receives in one batch.  See PendingExchange.  Remote messages are issued
/// in round-schedule order by default; kPeerOrder keeps the raw
/// enumeration order (the naive baseline under link contention).
template <class T, int R>
[[nodiscard]] PendingExchange redistribute_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst,
    IssueOrder order = IssueOrder::kRoundSchedule) {
  return detail::copy_begin(ctx, src, dst, detail::redistribute_copy(src, dst),
                            order);
}

/// Blocking redistribute: redistribute_begin(...).finish().
template <class T, int R>
void redistribute(Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst,
                  IssueOrder order = IssueOrder::kRoundSchedule) {
  redistribute_begin(ctx, src, dst, order).finish();
}

/// A line pass pipelined into the redistribution after it: `line(r)` for
/// every index r src owns along `line_dim` (line r must be local to its
/// owner, and line(r) may write only line r), in kLineSlices strided
/// slices.  Once slice k's lines are done, slice k's share of
/// redistribute(src, dst) goes on the wire while slice k+1 computes; after
/// the last slice the exchanges finish in the order they began.  Values
/// land exactly where `for r: line(r); redistribute(ctx, src, dst)` puts
/// them.  The exchange is planned once; each slice cuts the plan's slabs.
/// Box layouts only; collective over the union of both views' members.
template <class T, int R, class Fn>
void redistribute_lines(Context& ctx, const DistArray<T, R>& src,
                        DistArray<T, R>& dst, int line_dim, Fn&& line) {
  KALI_CHECK(detail::box_eligible(src) && detail::box_eligible(dst),
             "redistribute_lines: requires block/star layouts");
  const detail::BoxCopy full = detail::redistribute_copy(src, dst, line_dim);
  const auto plan = detail::plan_exchange(ctx, src, dst, full);
  const int lo = src.participating() ? src.own_lower(line_dim) : 0;
  const int hi = src.participating() ? src.own_upper(line_dim) : -1;
  std::vector<PendingExchange> slices;
  for (int k = 0; k < kLineSlices; ++k) {
    const int first = lo + (k + kLineSlices - lo % kLineSlices) % kLineSlices;
    for (int r = first; r <= hi; r += kLineSlices) {
      line(r);
    }
    auto [c, p] = detail::line_slice(full, plan, k);
    slices.push_back(
        detail::box_exchange_begin(ctx, src, dst, c, std::move(p)));
  }
  for (PendingExchange& s : slices) {
    s.finish();
  }
}

}  // namespace kali
