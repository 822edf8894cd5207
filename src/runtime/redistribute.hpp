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
//    peer, holding bins only for the peers it meets.  O(local n + peers)
//    — never the O(local n × P) all-pairs ownership scan of the
//    original implementation, which survives only as the test oracle
//    tests/oracles/redistribute_reference.hpp.  It is the
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
// Issue order.  The machine-wide round schedule of machine/schedule.hpp
// (XOR pairwise exchange for a power-of-two machine, latin-square ordering
// otherwise) numbers a pair's round from the two machine ranks alone, and
// restricted to the ranks of both views each round is still a matching.
// But a sender with few peers compacts its rounds, so on a sparse pair set
// its k-th send is not its round-k message: on ADI's (*, block) ->
// (block, block) switch the four senders to each of ranks 3, 6, 9 and 12
// all put them last, and those ejection ports drained three wire times
// after the ports of ranks 0, 5, 10 and 15.  The box exchange therefore
// gives exchange_begin its own send order, an edge colouring of its pair
// graph (pair_graph_sort): each sender's send to receiver d gets colour a ^ b
// from d's position b among its destinations and its own position a among
// d's sources, computed from the two layouts' arithmetic in O(R) per peer.
// On a whole-machine power-of-two all-to-all that is the XOR order itself;
// on a complete-bipartite component with power-of-two sides it is a latin
// square.  The receives are posted in round order, and the binner keeps
// the round order.  redistribute() and redistribute_begin() also take
// IssueOrder::kPeerOrder, which keeps the raw enumeration order: the naive
// baseline bench_redistribute compares the orders against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
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

/// Per grid dimension of box-eligible `A`'s view: the array dim bound to
/// it and the inclusive range of owner coordinates whose receive set can
/// meet the transfer set (`within`'s ranges on off-dims, steps `tr`
/// through off + t * stride along `dim`) — one coordinate wider per side
/// on a dim with a halo when `expand_halo` (the caller guarantees no halo
/// is wider than a block).
struct PeerRanges {
  int nd = 0;
  std::array<int, kMaxProcDims> adim{};  ///< grid dim -> bound array dim
  std::array<int, kMaxProcDims> lo{};
  std::array<int, kMaxProcDims> hi{};
};

template <class T, int R>
PeerRanges peer_ranges(const DistArray<T, R>& A, const Box<R>& within,
                       int dim, TRange tr, int off, int stride,
                       bool expand_halo) {
  PeerRanges pr;
  pr.nd = A.view().ndims();
  for (int d = 0; d < R; ++d) {
    if (A.proc_dim(d) >= 0) {
      pr.adim[static_cast<std::size_t>(A.proc_dim(d))] = d;
    }
  }
  for (int pd = 0; pd < pr.nd; ++pd) {
    const auto upd = static_cast<std::size_t>(pd);
    const int d = pr.adim[upd];
    if (d == dim) {
      pr.lo[upd] = A.map(d).owner(off + tr.lo * stride);
      pr.hi[upd] = A.map(d).owner(off + tr.hi * stride);
    } else {
      const auto ud = static_cast<std::size_t>(d);
      pr.lo[upd] = A.map(d).owner(within.lo[ud]);
      pr.hi[upd] = A.map(d).owner(within.hi[ud]);
    }
    if (expand_halo && A.halo(d) > 0) {  // expansion reaches one owner more
      pr.lo[upd] = std::max(0, pr.lo[upd] - 1);
      pr.hi[upd] = std::min(A.view().extent(pd) - 1, pr.hi[upd] + 1);
    }
  }
  return pr;
}

/// Visit every rank of box-eligible `A` whose receive set intersects the
/// transfer set (`within`'s ranges on off-dims, steps `tr` through
/// off + t * stride along `dim`), passing the rank and the shared slab: a
/// box whose off-dim slots are global indices and whose `dim` slot holds
/// the shared steps.  O(peers): per grid dimension only the owner
/// coordinates of the range bounds are enumerated (peer_ranges), in
/// row-major order, so ranks ascend; ranks whose block skips every strided
/// step (stride larger than the block) are filtered out, identically on
/// both endpoints.  With `expand_halo`, each rank's receive set is its
/// owned block expanded by A's halo margins and clipped to the domain;
/// without it, exactly the owned blocks.
template <class T, int R, class Fn>
void strided_peer_walk(const DistArray<T, R>& A, const Box<R>& within,
                       int dim, TRange tr, int off, int stride,
                       bool expand_halo, Fn fn) {
  const PeerRanges pr =
      peer_ranges(A, within, dim, tr, off, stride, expand_halo);
  const auto udim = static_cast<std::size_t>(dim);
  std::array<int, kMaxProcDims> c = pr.lo;
  for (;;) {
    Box<R> b = within;  // star dims of A: peer holds the whole extent
    b.lo[udim] = tr.lo;
    b.hi[udim] = tr.hi;
    bool nonempty = true;
    for (int pd = 0; pd < pr.nd && nonempty; ++pd) {
      const auto upd = static_cast<std::size_t>(pd);
      const int d = pr.adim[upd];
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
    int pd = pr.nd - 1;
    for (; pd >= 0; --pd) {
      const auto upd = static_cast<std::size_t>(pd);
      if (++c[upd] <= pr.hi[upd]) {
        break;
      }
      c[upd] = pr.lo[upd];
    }
    if (pd < 0) {
      return;
    }
  }
}

/// The owned box (paper's lower/upper) of the rank at view coordinates
/// `vc` of box-eligible `A`, expanded by A's halo margins and clipped to
/// the domain when `expand_halo`: a receiver's set in a fused-halo copy.
template <class T, int R>
Box<R> block_box(const DistArray<T, R>& A,
                 const std::array<int, kMaxProcDims>& vc, bool expand_halo) {
  Box<R> b;
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    b.lo[ud] = 0;
    b.hi[ud] = A.extent(d) - 1;
    if (A.proc_dim(d) >= 0) {
      const int c = vc[static_cast<std::size_t>(A.proc_dim(d))];
      const int h = expand_halo ? A.halo(d) : 0;
      b.lo[ud] = std::max(0, A.map(d).block_lower(c) - h);
      b.hi[ud] = std::min(b.hi[ud], A.map(d).block_upper(c) + h);
    }
  }
  return b;
}

/// This rank's position among the ranks strided_peer_walk(A, within, dim,
/// tr, off, stride, /*expand_halo=*/false) visits, in O(R) without the
/// walk; this rank must be one of them.  The visited set is a product of
/// per-grid-dim coordinate sets, so the position is a row-major index.
/// Off `dim`, and along it while the stride is below the block length,
/// every coordinate in peer_ranges holds a step; from the block length on,
/// each step has a block of its own and coordinates between steps drop
/// out.
template <class T, int R>
int walk_position(const DistArray<T, R>& A, const Box<R>& within, int dim,
                  TRange tr, int off, int stride) {
  const PeerRanges pr = peer_ranges(A, within, dim, tr, off, stride, false);
  int pos = 0;
  for (int pd = 0; pd < pr.nd; ++pd) {
    const auto upd = static_cast<std::size_t>(pd);
    const int d = pr.adim[upd];
    const DimMap& m = A.map(d);
    int before = A.my_coord(d) - pr.lo[upd];
    int n = pr.hi[upd] - pr.lo[upd] + 1;
    if (d == dim && stride >= m.count(0)) {
      const int t = floor_div(m.block_lower(A.my_coord(d)) - 1 - off, stride);
      before = std::max(0, std::min(tr.hi, t) - tr.lo + 1);
      n = tr.hi - tr.lo + 1;
    }
    pos = pos * n + before;
  }
  return pos;
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
    const Box<R> mine =
        block_box(src, *src.view().coord_of(ctx.rank()), false);
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
    const Box<R> mine =
        block_box(dst, *dst.view().coord_of(ctx.rank()), c.fuse_halo);
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

/// Put a plan's sends `out` in the order of an edge colouring of the
/// exchange's own pair graph (senders x receivers, self pairs included).
/// The send to receiver d gets colour a ^ b, where b is d's position among
/// this rank's destinations and a this rank's position among d's sources
/// (both lists ascending; `has_self` says whether this rank is one of its
/// own destinations); ties go by the machine-wide round.  Every sender
/// computes its colours from the two layouts' arithmetic, O(R) per peer: b
/// from the plan, a from d's receive set (block_box, walk_position).  On a
/// complete-bipartite component with power-of-two sides the colouring is a
/// latin square, so with no more senders than receivers no receiver takes
/// two messages in one issue slot; on a whole-machine all-to-all of a
/// power-of-two machine it is the machine-wide XOR order itself.
template <class T, int R>
void pair_graph_sort(const Context& ctx, const DistArray<T, R>& src,
                     const DistArray<T, R>& dst, const BoxCopy& c,
                     bool has_self, std::vector<std::pair<int, Box<R>>>& out) {
  if (out.size() < 2) {
    return;
  }
  // b of out[i] is i, or i + 1 from this rank's own slot on (the plan's
  // destinations ascend and skip self).
  const std::size_t self_b =
      has_self ? static_cast<std::size_t>(
                     std::ranges::lower_bound(out, ctx.rank(), {},
                                              &std::pair<int, Box<R>>::first) -
                     out.begin())
               : out.size();
  const auto ud = static_cast<std::size_t>(c.dim);
  const CommSchedule sched(ctx.nprocs());
  std::vector<std::pair<std::uint64_t, std::size_t>> keys;
  keys.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int rank = out[i].first;
    // a: this rank's position among the sources of `rank`, from its
    // receive set.
    const Box<R> rb = block_box(dst, *dst.view().coord_of(rank), c.fuse_halo);
    const TRange tr = strided_steps(rb.lo[ud], rb.hi[ud], c.d_off, c.d_stride,
                                    c.count - 1);
    const auto a = static_cast<std::size_t>(
        walk_position(src, rb, c.dim, tr, c.s_off, c.s_stride));
    const std::size_t b = i < self_b ? i : i + 1;
    keys.emplace_back((static_cast<std::uint64_t>(a ^ b) << 32) |
                          static_cast<std::uint64_t>(
                              sched.round_of(ctx.rank(), rank)),
                      i);
  }
  std::ranges::sort(keys);
  std::vector<std::pair<int, Box<R>>> sorted;
  sorted.reserve(out.size());
  for (const auto& k : keys) {
    sorted.push_back(out[k.second]);
  }
  std::ranges::copy(sorted, out.begin());  // `out` keeps its allocation
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

/// A planned box exchange begun: the sends fired in pair-graph order
/// (pair_graph_sort) and the receives posted in round order (raw
/// enumeration order for both under kPeerOrder), the pack and the
/// self-overlap copy charged inside the wire window; finish() unpacks each
/// incoming slab straight from its payload.
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
      order,
      [&](std::vector<std::pair<int, Box<R>>>& out) {
        pair_graph_sort(ctx, src, dst, c, p.self.has_value(), out);
      });
  ctx.compute(packed);
  ctx.compute(copy_self(src, dst, c, p));
  return ex;
}

/// Items binned by view index, with a bin only for each index met — not a
/// slot per view member.  The bin last hit and the one met after it
/// (wrapping) are checked before the O(log peers) index lookup, so the
/// recurring owners of a cyclic walk cost O(1) per item.
template <class Item>
class PeerBins {
 public:
  void add(std::size_t index, Item item) {
    if (last_ >= bins_.size() || bins_[last_].first != index) {
      const std::size_t next = last_ + 1 < bins_.size() ? last_ + 1 : 0;
      if (next < bins_.size() && bins_[next].first == index) {
        last_ = next;
      } else {
        const auto [it, fresh] = slot_.try_emplace(index, bins_.size());
        if (fresh) {
          bins_.emplace_back(index, std::vector<Item>{});
        }
        last_ = it->second;
      }
    }
    bins_[last_].second.push_back(std::move(item));
  }

  /// The bins, ascending by index; each keeps its items in insertion order.
  std::vector<std::pair<std::size_t, std::vector<Item>>> take() && {
    std::ranges::sort(bins_, {},
                      &std::pair<std::size_t, std::vector<Item>>::first);
    return std::move(bins_);
  }

 private:
  std::vector<std::pair<std::size_t, std::vector<Item>>> bins_;
  std::map<std::size_t, std::size_t> slot_;  ///< index -> position in bins_
  std::size_t last_ = 0;
};

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
    const auto self_di = static_cast<std::size_t>(
        in_dst ? dst.view().linear_index_of(ctx.rank())
               : dst.view().count());  // sentinel: matches no bin
    PeerBins<T> bins;
    src.for_each_owned([&](GIndex<R> g) {
      const int t = step_of(g[ud], c.s_off, c.s_stride);
      if (t < 0) {
        return;
      }
      GIndex<R> gd = g;
      gd[ud] = c.d_off + t * c.d_stride;
      const std::size_t di = owner_index(dst, gd);
      if (di != self_di) {
        bins.add(di, src.at(g));
      }
    });
    for (auto& [di, vals] : std::move(bins).take()) {
      out.emplace_back(dst.view().rank_at(static_cast<int>(di)),
                       std::move(vals));
    }
  }
  if (in_dst) {
    const auto self_si = static_cast<std::size_t>(
        in_src ? src.view().linear_index_of(ctx.rank())
               : src.view().count());  // sentinel: matches no bin
    PeerBins<GIndex<R>> expect;
    dst.for_each_owned([&](GIndex<R> g) {
      const int t = step_of(g[ud], c.d_off, c.d_stride);
      if (t >= 0) {
        GIndex<R> gs = g;
        gs[ud] = c.s_off + t * c.s_stride;
        expect.add(owner_index(src, gs), g);
      }
    });
    for (auto& [si, idxs] : std::move(expect).take()) {
      if (si == self_si) {
        self = std::move(idxs);
      } else {
        in.emplace_back(src.view().rank_at(static_cast<int>(si)),
                        std::move(idxs));
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
