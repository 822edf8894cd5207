// Distributed arrays (the paper's `real X(0:np, 0:np) dist (block, block)`).
//
// A DistArray<T, R> is an SPMD object: every member of its ProcView holds
// the descriptor plus its own local slab (with optional halo/ghost margins
// on block-distributed dimensions).  Non-members hold only the descriptor.
//
// Slicing is the paper's key composition mechanism:
//   A.fix(2, k)           ~  u(*, *, k)   — rank drops; the processor view
//                                            is sliced to the owners
//   A.localize(0, lo, n)  ~  v(lo:hi, *)  — a single owner's block becomes
//                                            an undistributed (*) dimension
// Both return views sharing the parent's storage, so kernels called on a
// slice ("distributed procedures") operate on the original data in place.
//
// Indexing is Fortran-listing-flavoured: `A(i, j)` is checked global
// indexing — it takes *global* indices, checks range and ownership on every
// call, and throws kali::Error on a miss; `A.at_halo(...)` additionally
// admits ghost cells.  That suits stencil bodies and fills.  Kernels that
// run over whole lines (FFT, Thomas) instead take each line once through
// `A.fix(other, r).local_strided()` — a Strided window onto the local slab —
// and move it with to_vector / plain strided loops, paying the ownership
// check once per line rather than once per element.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/message.hpp"   // kTagHalo (reserved-tag registry)
#include "machine/proc_view.hpp"
#include "machine/schedule.hpp"  // the halo: detail::exchange_begin
#include "runtime/distribution.hpp"

namespace kali {

/// Whether a halo exchange must also fill diagonal corner ghosts.
enum class HaloCorners { kNo, kYes };

/// Index/extent tuple for a rank-R array.  R is signed (Fortran-flavoured)
/// throughout the API; the cast keeps instantiation sites clean under
/// -Wsign-conversion.
template <int R>
using GIndex = std::array<int, static_cast<std::size_t>(R)>;

/// Strided 1-D window over local memory; what sequential kernels consume.
template <class T>
struct Strided {
  T* data = nullptr;
  std::ptrdiff_t stride = 1;
  int n = 0;

  T& operator[](int i) const { return data[stride * static_cast<std::ptrdiff_t>(i)]; }

  operator Strided<const T>() const  // NOLINT(google-explicit-constructor)
    requires(!std::is_const_v<T>)
  {
    return {data, stride, n};
  }
};

/// Contiguous copy of a strided window (the line a sequential kernel reads).
template <class T>
[[nodiscard]] std::vector<std::remove_const_t<T>> to_vector(Strided<T> s) {
  std::vector<std::remove_const_t<T>> v(static_cast<std::size_t>(s.n));
  for (int i = 0; i < s.n; ++i) {
    v[static_cast<std::size_t>(i)] = s[i];
  }
  return v;
}

template <class T, int R>
class DistArray {
  static_assert(R >= 1 && R <= 3, "DistArray supports ranks 1..3");

  static constexpr std::size_t UR = static_cast<std::size_t>(R);

 public:
  using Extents = GIndex<R>;
  using Dists = std::array<DimDist, UR>;
  using Halos = std::array<int, UR>;

  DistArray() = default;

  /// Collective constructor: every member of `view` allocates its slab.
  /// The number of non-star dims must equal view.ndims() (paper rule);
  /// non-star dims bind to processor-grid dims in declaration order.
  DistArray(Context& ctx, const ProcView& view, Extents extents, Dists dists,
            Halos halo = {})
      : ctx_(&ctx), view_(view), extents_(extents), dists_(dists), halo_(halo) {
    int pd = 0;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      KALI_CHECK(halo_[ud] >= 0, "halo width must be non-negative");
      if (dists_[ud].kind == DistKind::kStar) {
        proc_dim_[ud] = -1;
        maps_[ud] = DimMap(dists_[ud], extents_[ud], 1);
        KALI_CHECK(halo_[ud] == 0, "halo only on distributed dims");
      } else {
        KALI_CHECK(pd < view.ndims(),
                   "more distributed dims than processor-array dims");
        proc_dim_[ud] = pd;
        maps_[ud] = DimMap(dists_[ud], extents_[ud], view.extent(pd));
        KALI_CHECK(halo_[ud] == 0 || dists_[ud].kind == DistKind::kBlock,
                   "halo requires a block distribution");
        ++pd;
      }
    }
    KALI_CHECK(pd == view.ndims(),
               "distributed dims must match processor-array dims");

    auto coord = view.coord_of(ctx.rank());
    member_ = coord.has_value();
    if (!member_) {
      return;
    }
    view_coord_ = *coord;
    std::ptrdiff_t size = 1;
    for (int d = R - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      my_coord_[ud] = proc_dim_[ud] < 0
                          ? 0
                          : view_coord_[static_cast<std::size_t>(proc_dim_[ud])];
      lcount_[ud] = maps_[ud].count(my_coord_[ud]);
      lower_[ud] = dists_[ud].kind == DistKind::kBlock
                       ? maps_[ud].block_lower(my_coord_[ud])
                       : 0;
      strides_[ud] = size;
      size *= lcount_[ud] + 2 * halo_[ud];
    }
    store_ = std::make_shared<std::vector<T>>(static_cast<std::size_t>(size), T{});
    offset_ = 0;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      offset_ += static_cast<std::ptrdiff_t>(halo_[ud]) * strides_[ud];
    }
  }

  // ---- metadata -----------------------------------------------------------

  [[nodiscard]] bool participating() const { return member_; }
  [[nodiscard]] const ProcView& view() const { return view_; }
  [[nodiscard]] int extent(int d) const { return extents_[idx(d)]; }
  [[nodiscard]] const DimMap& map(int d) const { return maps_[idx(d)]; }
  [[nodiscard]] DistKind dist_kind(int d) const { return dists_[idx(d)].kind; }
  [[nodiscard]] int halo(int d) const { return halo_[idx(d)]; }
  [[nodiscard]] int proc_dim(int d) const { return proc_dim_[idx(d)]; }
  [[nodiscard]] Context& context() const {
    KALI_CHECK(ctx_ != nullptr, "uninitialized array");
    return *ctx_;
  }

  /// My processor coordinate along dim d's grid dimension (0 for star dims).
  [[nodiscard]] int my_coord(int d) const {
    require_member();
    return my_coord_[idx(d)];
  }

  /// The view, once the caller is checked to be a member.  Kept only for
  /// the benchmark harness (benchmark/); collectives take view() directly.
  [[nodiscard]] const ProcView& group() const {
    require_member();
    return view_;
  }

  // ---- ownership & indexing ----------------------------------------------

  [[nodiscard]] bool owns(Extents g) const {
    if (!member_) {
      return false;
    }
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (g[ud] < 0 || g[ud] >= extents_[ud]) {
        return false;
      }
      if (maps_[ud].owner(g[ud]) != my_coord_[ud]) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] T& at(Extents g) {
    return cell(flat_owned(g));
  }
  [[nodiscard]] const T& at(Extents g) const {
    return cell(flat_owned(g));
  }

  /// Read access admitting ghost cells on block dims (within halo width).
  ///
  /// Ghost cells *outside the global domain* are legal too: they are the
  /// "boundary frame" of the paper's Listing 2, where each processor's
  /// (0:m+1, 0:m+1) slab carries boundary data around the distributed
  /// interior.  Frame cells are zero-initialized, never touched by
  /// exchange_halo (no neighbour there), and writable via frame().
  [[nodiscard]] const T& at_halo(Extents g) const {
    return cell(flat_halo(g));
  }

  /// Writable access to halo/frame cells (e.g. to impose inhomogeneous
  /// Dirichlet values on the boundary frame).
  [[nodiscard]] T& frame(Extents g) {
    return cell(flat_halo(g));
  }

  // Convenience operators taking global indices.
  T& operator()(int i)
    requires(R == 1)
  {
    return at({i});
  }
  const T& operator()(int i) const
    requires(R == 1)
  {
    return at({i});
  }
  T& operator()(int i, int j)
    requires(R == 2)
  {
    return at({i, j});
  }
  const T& operator()(int i, int j) const
    requires(R == 2)
  {
    return at({i, j});
  }
  T& operator()(int i, int j, int k)
    requires(R == 3)
  {
    return at({i, j, k});
  }
  const T& operator()(int i, int j, int k) const
    requires(R == 3)
  {
    return at({i, j, k});
  }

  /// Owned extent along d for block/star dims: inclusive [lower, upper]
  /// (the paper's `lower`/`upper` intrinsics).
  [[nodiscard]] int own_lower(int d) const {
    require_member();
    const auto ud = idx(d);
    if (dists_[ud].kind == DistKind::kStar) {
      return 0;
    }
    KALI_CHECK(dists_[ud].kind == DistKind::kBlock,
               "own_lower requires block or star dist");
    return lower_[ud];
  }
  [[nodiscard]] int own_upper(int d) const {
    return own_lower(d) + local_count(d) - 1;
  }
  [[nodiscard]] int local_count(int d) const {
    require_member();
    return lcount_[idx(d)];
  }

  /// All owned global indices along d, ascending (any distribution).
  [[nodiscard]] std::vector<int> owned(int d) const {
    require_member();
    const auto ud = idx(d);
    return maps_[ud].owned_indices(my_coord_[ud]);
  }

  /// Strided window over the owned elements of a 1-D array.
  [[nodiscard]] Strided<T> local_strided()
    requires(R == 1)
  {
    require_member();
    return {store_->data() + offset_, strides_[0], lcount_[0]};
  }
  [[nodiscard]] Strided<const T> local_strided() const
    requires(R == 1)
  {
    require_member();
    return {store_->data() + offset_, strides_[0], lcount_[0]};
  }

  // ---- fills ----------------------------------------------------------------

  template <class Fn>
  void fill(Fn fn) {
    if (!member_) {
      return;
    }
    for_each_owned([&](Extents g) { at(g) = fn(g); });
  }

  void fill_value(const T& v) {
    fill([&](Extents) { return v; });
  }

  /// Visit every owned element (global indices, row-major order).
  template <class Fn>
  void for_each_owned(Fn fn) const {
    if (!member_) {
      return;
    }
    std::array<std::vector<int>, UR> own;
    for (int d = 0; d < R; ++d) {
      own[static_cast<std::size_t>(d)] = owned(d);
      if (own[static_cast<std::size_t>(d)].empty()) {
        return;  // this member owns no elements (extent < nprocs overshoot)
      }
    }
    Extents g{};
    std::array<std::size_t, UR> pos{};
    for (;;) {
      for (int d = 0; d < R; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        g[ud] = own[ud][pos[ud]];
      }
      fn(g);
      int d = R - 1;
      for (; d >= 0; --d) {
        const auto ud = static_cast<std::size_t>(d);
        if (++pos[ud] < own[ud].size()) {
          break;
        }
        pos[ud] = 0;
      }
      if (d < 0) {
        return;
      }
    }
  }

  // ---- copy-in/copy-out & halo ---------------------------------------------

  /// Deep copy of the local slab (including halo margins) — the temporary a
  /// KF1 compiler introduces for the doall copy-in/copy-out semantics.
  /// Charges one op per element copied, like the explicit tmpX loop of
  /// Listings 1-2.
  [[nodiscard]] DistArray clone() const {
    DistArray c = *this;
    if (!member_) {
      return c;
    }
    std::ptrdiff_t size = 1;
    for (int d = R - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      c.strides_[ud] = size;
      size *= lcount_[ud] + 2 * halo_[ud];
    }
    c.store_ = std::make_shared<std::vector<T>>(static_cast<std::size_t>(size));
    c.offset_ = 0;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      c.offset_ += static_cast<std::ptrdiff_t>(halo_[ud]) * c.strides_[ud];
    }
    // Copy the full slab (owned + halo) element-wise (layouts may differ
    // when *this is a slice of a larger array).
    std::ptrdiff_t copied = 0;
    visit_slab([&](const GIndex<R>& rel) {
      (*c.store_)[static_cast<std::size_t>(c.rel_flat(rel))] =
          (*store_)[static_cast<std::size_t>(rel_flat_of(*this, rel))];
      ++copied;
    });
    ctx_->compute(static_cast<double>(copied));
    return c;
  }

  /// clone() + exchange_halo(): the full copy-in of a stencil doall.
  [[nodiscard]] DistArray copy_in(HaloCorners corners = HaloCorners::kNo) const {
    DistArray c = clone();
    c.exchange_halo(corners);
    return c;
  }

  /// Exchange ghost margins with grid neighbours along every block dim with
  /// halo > 0: exchange_halo_begin(corners, order).finish().  Collective
  /// over the view.
  void exchange_halo(HaloCorners corners = HaloCorners::kNo,
                     IssueOrder order = IssueOrder::kRoundSchedule) {
    exchange_halo_begin(corners, order).finish();
  }

  /// Split-phase halo exchange: fires the sends and returns without
  /// receiving.  Between begin and finish() the owner may compute on
  /// anything except the ghost cells (the interior of the owned slab in
  /// particular) — that work runs while the wire drains, which is the
  /// entire point; doall_overlap (runtime/doall.hpp) runs a stencil loop
  /// that way.  finish() must run before the ghosts are read and before the
  /// rank program returns; see PendingExchange.
  ///
  /// Both modes are one detail::exchange_begin over the view: one kTagHalo
  /// message per peer, every send posted before any receive — one latency
  /// round, the message pattern of the hand-coded Listing 2.  Each
  /// direction vector delta in {-1, 0, +1}^R names one ghost region (see
  /// plan_halo).
  ///
  /// HaloCorners::kNo (default): only the face directions (one nonzero dim
  /// of delta), so faces cover the owned extent of the other dims.
  /// Sufficient for star-shaped stencils (all of the paper's algorithms).
  /// The sends issue in ascending direction-code order (kPeerOrder): each
  /// face peer gets one message, and no member list is built.
  ///
  /// HaloCorners::kYes: every direction, so diagonal corner ghosts are
  /// valid afterwards too (needed for 9-point-style stencils), in one
  /// round trip instead of R serialized dimension rounds.  `order` selects
  /// the issue order under link contention: the round-structured
  /// CommSchedule (machine/schedule.hpp) by default, kPeerOrder as the
  /// naive baseline.  It is ignored in face mode.
  [[nodiscard]] PendingExchange exchange_halo_begin(
      HaloCorners corners = HaloCorners::kNo,
      IssueOrder order = IssueOrder::kRoundSchedule) {
    if (!member_) {
      return {};
    }
    require_halo_fits();
    const bool faces = corners == HaloCorners::kNo;
    Pieces sends;
    Pieces recvs;
    plan_halo(faces, sends, recvs);
    auto out = runs_by_peer(sends);
    auto in = runs_by_peer(recvs);
    std::vector<int> members;
    if (faces) {
      order = IssueOrder::kPeerOrder;
    } else if (order == IssueOrder::kRoundSchedule) {
      members = view_.ranks();
    }
    std::vector<T> buf;
    double packed = 0;
    PendingExchange ex = detail::exchange_begin<T>(
        *ctx_, members, kTagHalo, std::move(out), std::move(in),
        [&](const PieceRun& run) {
          buf.clear();
          buf.reserve(volume(sends, run));
          for (std::size_t k = run.first; k < run.first + run.count; ++k) {
            visit_rel_box(sends[k].second.lo, sends[k].second.hi,
                          [&](const GIndex<R>& rel) {
                            buf.push_back((*store_)[static_cast<std::size_t>(
                                rel_flat(rel))]);
                          });
          }
          packed += static_cast<double>(buf.size());
          return std::span<const T>(buf);
        },
        [this, recvs = std::move(recvs)](const PieceRun& run,
                                         const std::vector<T>& vals) {
          KALI_CHECK(vals.size() == volume(recvs, run), "halo size mismatch");
          std::size_t v = 0;
          for (std::size_t k = run.first; k < run.first + run.count; ++k) {
            visit_rel_box(recvs[k].second.lo, recvs[k].second.hi,
                          [&](const GIndex<R>& rel) {
                            (*store_)[static_cast<std::size_t>(rel_flat(rel))] =
                                vals[v++];
                          });
          }
          return static_cast<double>(v);
        },
        order);
    ctx_->compute(packed);  // pack cost, one op per element moved
    return ex;
  }

  // ---- slicing ---------------------------------------------------------------

  /// Fix dimension `dim` to global index g: u(*, *, k) etc.
  /// Collective in the descriptor sense: all callers compute the same
  /// metadata; only owners of the slice keep storage access.
  [[nodiscard]] DistArray<T, R - 1> fix(int dim, int g) const
    requires(R >= 2)
  {
    const auto ud = idx(dim);
    KALI_CHECK(g >= 0 && g < extents_[ud], "fix: index out of range");
    DistArray<T, R - 1> out;
    out.ctx_ = ctx_;
    const bool star = dists_[ud].kind == DistKind::kStar;
    const int removed_pd = proc_dim_[ud];
    if (star) {
      out.view_ = view_;
    } else {
      out.view_ = view_.fix(removed_pd, maps_[ud].owner(g));
    }
    int o = 0;
    for (int d = 0; d < R; ++d) {
      if (d == dim) {
        continue;
      }
      const auto sd = static_cast<std::size_t>(d);
      const auto so = static_cast<std::size_t>(o);
      out.extents_[so] = extents_[sd];
      out.dists_[so] = dists_[sd];
      out.halo_[so] = halo_[sd];
      out.maps_[so] = maps_[sd];
      out.proc_dim_[so] =
          (!star && proc_dim_[sd] > removed_pd) ? proc_dim_[sd] - 1 : proc_dim_[sd];
      ++o;
    }
    out.member_ = member_ && (star || maps_[ud].owner(g) == my_coord_[ud]);
    if (out.member_) {
      const auto vc = out.view_.coord_of(ctx_->rank());
      KALI_CHECK(vc.has_value(), "fix: inconsistent view membership");
      out.view_coord_ = *vc;
      o = 0;
      for (int d = 0; d < R; ++d) {
        if (d == dim) {
          continue;
        }
        const auto sd = static_cast<std::size_t>(d);
        const auto so = static_cast<std::size_t>(o);
        out.my_coord_[so] = my_coord_[sd];
        out.lcount_[so] = lcount_[sd];
        out.lower_[so] = lower_[sd];
        out.strides_[so] = strides_[sd];
        ++o;
      }
      out.store_ = store_;
      const int l = star ? g : maps_[ud].local(g);
      out.offset_ = offset_ + static_cast<std::ptrdiff_t>(l) * strides_[ud];
    }
    return out;
  }

  /// Restrict dim to [lo, lo+len): star dims always; block dims only when
  /// the range lies within one owner's slab, which then becomes a star dim
  /// over the correspondingly fixed processor view (Listing 8's v(lo:hi,*)).
  [[nodiscard]] DistArray localize(int dim, int lo, int len) const {
    const auto ud = idx(dim);
    KALI_CHECK(len >= 1 && lo >= 0 && lo + len <= extents_[ud],
               "localize: bad range");
    DistArray out = *this;
    if (dists_[ud].kind == DistKind::kStar) {
      out.extents_[ud] = len;
      out.maps_[ud] = DimMap(DimDist::star(), len, 1);
      if (member_) {
        out.offset_ = offset_ + static_cast<std::ptrdiff_t>(lo) * strides_[ud];
        out.lcount_[ud] = len;
      }
      return out;
    }
    KALI_CHECK(dists_[ud].kind == DistKind::kBlock,
               "localize requires star or block dim");
    KALI_CHECK(maps_[ud].single_owner_range(lo, lo + len - 1),
               "localize: range spans multiple owners");
    const int c = maps_[ud].owner(lo);
    const int removed_pd = proc_dim_[ud];
    out.view_ = view_.fix(removed_pd, c);
    out.extents_[ud] = len;
    out.dists_[ud] = DimDist::star();
    out.halo_[ud] = 0;
    out.maps_[ud] = DimMap(DimDist::star(), len, 1);
    out.proc_dim_[ud] = -1;
    for (int d = 0; d < R; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      if (d != dim && proc_dim_[sd] > removed_pd) {
        out.proc_dim_[sd] = proc_dim_[sd] - 1;
      }
    }
    out.member_ = member_ && my_coord_[ud] == c;
    if (out.member_) {
      const auto vc = out.view_.coord_of(ctx_->rank());
      KALI_CHECK(vc.has_value(), "localize: inconsistent view membership");
      out.view_coord_ = *vc;
      out.my_coord_[ud] = 0;
      out.lcount_[ud] = len;
      out.lower_[ud] = 0;
      out.offset_ = offset_ + static_cast<std::ptrdiff_t>(maps_[ud].local(lo)) * strides_[ud];
    } else {
      out.store_.reset();
    }
    return out;
  }

 private:
  template <class U, int S>
  friend class DistArray;

  static std::size_t idx(int d) {
    KALI_CHECK(d >= 0 && d < R, "dimension out of range");
    return static_cast<std::size_t>(d);
  }

  void require_member() const {
    KALI_CHECK(member_, "operation requires view membership");
  }

  /// The element at flat position f.  Takes the position already computed,
  /// so the membership check in flat_owned/flat_halo runs before store_
  /// (null off the view) is touched.
  [[nodiscard]] T& cell(std::ptrdiff_t f) const {
    return (*store_)[static_cast<std::size_t>(f)];
  }

  /// Block and star dims hold one contiguous run of global indices
  /// starting at lower_, so ownership there is the range test
  /// 0 <= g - lower < count (on a block dim, owner(g) == c exactly when it
  /// holds); cyclic and block-cyclic dims go through the DimMap algebra.
  [[nodiscard]] bool contiguous_dim(std::size_t ud) const {
    return dists_[ud].kind == DistKind::kBlock ||
           dists_[ud].kind == DistKind::kStar;
  }

  [[nodiscard]] std::ptrdiff_t flat_halo(Extents g) const {
    require_member();
    std::ptrdiff_t f = offset_;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      std::ptrdiff_t rel;
      if (contiguous_dim(ud)) {
        rel = static_cast<std::ptrdiff_t>(g[ud]) - lower_[ud];
        if (rel < -halo_[ud] || rel >= lcount_[ud] + halo_[ud]) {
          KALI_FAIL(dists_[ud].kind == DistKind::kBlock
                        ? "at_halo: outside slab+halo"
                        : "at_halo: not owned");
        }
      } else {
        KALI_CHECK(g[ud] >= 0 && g[ud] < extents_[ud] &&
                       maps_[ud].owner(g[ud]) == my_coord_[ud],
                   "at_halo: not owned");
        rel = maps_[ud].local(g[ud]);
      }
      f += rel * strides_[ud];
    }
    return f;
  }

  [[nodiscard]] std::ptrdiff_t flat_owned(Extents g) const {
    require_member();
    std::ptrdiff_t f = offset_;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      std::ptrdiff_t rel;
      if (contiguous_dim(ud)) {
        rel = static_cast<std::ptrdiff_t>(g[ud]) - lower_[ud];
        if (rel < 0 || rel >= lcount_[ud]) {
          KALI_CHECK(g[ud] >= 0 && g[ud] < extents_[ud], "index out of range");
          KALI_FAIL("index not owned");
        }
      } else {
        KALI_CHECK(g[ud] >= 0 && g[ud] < extents_[ud], "index out of range");
        KALI_CHECK(maps_[ud].owner(g[ud]) == my_coord_[ud], "index not owned");
        rel = maps_[ud].local(g[ud]);
      }
      f += rel * strides_[ud];
    }
    return f;
  }

  /// Flat position of slab-relative coordinates (rel in [-halo, count+halo)).
  static std::ptrdiff_t rel_flat_of(const DistArray& a, const GIndex<R>& rel) {
    std::ptrdiff_t f = a.offset_;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      f += static_cast<std::ptrdiff_t>(rel[ud]) * a.strides_[ud];
    }
    return f;
  }
  [[nodiscard]] std::ptrdiff_t rel_flat(const GIndex<R>& rel) const {
    return rel_flat_of(*this, rel);
  }

  /// Visit all slab-relative coordinates including halo margins.
  template <class Fn>
  void visit_slab(Fn fn) const {
    GIndex<R> lo{};
    GIndex<R> hi{};
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      lo[ud] = -halo_[ud];
      hi[ud] = lcount_[ud] + halo_[ud];  // exclusive
    }
    visit_rel_box(lo, hi, fn);
  }

  /// Visit every slab-relative coordinate in [lo, hi) (hi exclusive) in
  /// row-major order; no-op when any extent is empty.
  template <class Fn>
  static void visit_rel_box(const GIndex<R>& lo, const GIndex<R>& hi, Fn fn) {
    GIndex<R> rel{};
    for (int d = 0; d < R; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      rel[sd] = lo[sd];
      if (lo[sd] >= hi[sd]) {
        return;
      }
    }
    for (;;) {
      fn(rel);
      int d = R - 1;
      for (; d >= 0; --d) {
        const auto sd = static_cast<std::size_t>(d);
        if (++rel[sd] < hi[sd]) {
          break;
        }
        rel[sd] = lo[sd];
      }
      if (d < 0) {
        return;
      }
    }
  }

  [[nodiscard]] int neighbor_rank(int dim, int delta) const {
    const auto ud = static_cast<std::size_t>(dim);
    const int pd = proc_dim_[ud];
    const int c = my_coord_[ud] + delta;
    if (c < 0 || c >= view_.extent(pd)) {
      return -1;
    }
    auto coord = view_coord_;
    coord[static_cast<std::size_t>(pd)] = c;
    return view_.rank_of(coord);
  }

  void require_halo_fits() const {
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (halo_[ud] > 0) {
        KALI_CHECK(lcount_[ud] >= halo_[ud],
                   "slab thinner than halo; increase extent or reduce procs");
      }
    }
  }

  /// One box of a halo exchange: slab-relative, hi exclusive.
  struct Piece {
    GIndex<R> lo{};
    GIndex<R> hi{};
  };

  /// A flat piece list: (peer, box) entries.
  using Pieces = std::vector<std::pair<int, Piece>>;

  /// A peer's pieces: entries [first, first + count) of a flat piece list.
  struct PieceRun {
    std::size_t first = 0;
    std::size_t count = 0;
  };

  /// Cells in a peer's pieces: the length of its message.
  static std::size_t volume(const Pieces& pieces, const PieceRun& run) {
    std::size_t total = 0;
    for (std::size_t k = run.first; k < run.first + run.count; ++k) {
      std::size_t v = 1;
      for (int d = 0; d < R; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        v *= static_cast<std::size_t>(pieces[k].second.hi[ud] -
                                      pieces[k].second.lo[ud]);
      }
      total += v;
    }
    return total;
  }

  /// The halo's pieces, (peer, box) in ascending direction-code order:
  /// what this member sends (owned faces and frame margins) and the ghost
  /// regions it receives.  `faces` keeps only the codes with one nonzero
  /// dim (HaloCorners::kNo).
  ///
  /// Each direction vector delta in {-1, 0, +1}^R (nonzero only on dims
  /// with halo > 0) names one disjoint ghost region of the slab margin.
  /// Split delta's nonzero dims by this member's grid position:
  ///   E dims — a neighbour exists in that direction; the region's data is
  ///            that side's *owned face* of the rank one step away,
  ///   U dims — the domain boundary; the region lies outside the global
  ///            index space and carries the *frame margin* of the rank at
  ///            the same coordinate (the value serialized per-dim rounds
  ///            would propagate into out-of-domain corners).
  /// The region's unique source is therefore the rank at coord + delta|E;
  /// regions with E empty stay untouched (pure frame).  Senders enumerate
  /// the same pairs from the other end: for each delta and each nonzero
  /// dim, the receiver either sits at coord - delta_d (E, gets my owned
  /// face) or at my own coordinate with no rank beyond it (U, gets my
  /// frame margin) — every valid combination with at least one E choice is
  /// a receiver.  No member ever messages itself.  A face code has one
  /// nonzero dim, so it has no U choice: a face piece is an owned face
  /// sent to the grid neighbour, and each face peer gets one piece.
  void plan_halo(bool faces, Pieces& sends, Pieces& recvs) const {
    int ncodes = 1;
    std::size_t max_sends = 1;  // sum over codes of 2^nnz
    for (int d = 0; d < R; ++d) {
      ncodes *= 3;
      max_sends *= 5;
    }
    sends.reserve(faces ? 2 * UR : max_sends);
    recvs.reserve(faces ? 2 * UR : static_cast<std::size_t>(ncodes));
    std::array<int, UR> nz{};  // nonzero dims of the current delta
    for (int code = 0; code < ncodes; ++code) {
      GIndex<R> delta{};
      int rest = code;
      int nnz = 0;
      bool eligible = true;
      for (int d = 0; d < R; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        delta[ud] = rest % 3 - 1;
        rest /= 3;
        if (delta[ud] != 0) {
          if (halo_[ud] == 0) {
            eligible = false;
            break;
          }
          nz[static_cast<std::size_t>(nnz++)] = d;
        }
      }
      if (!eligible || nnz == 0 || (faces && nnz != 1)) {
        continue;
      }
      // Delta's zero dims span the owned extent.
      Piece rest_of_slab;
      bool empty = false;
      for (int d = 0; d < R; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        if (delta[ud] == 0) {
          rest_of_slab.hi[ud] = lcount_[ud];
          empty = empty || lcount_[ud] == 0;
        }
      }
      if (empty) {
        continue;
      }
      // Receive side: source = coord + delta along E dims.
      {
        auto coord = view_coord_;
        bool any_e = false;
        Piece p = rest_of_slab;
        for (int b = 0; b < nnz; ++b) {
          const int d = nz[static_cast<std::size_t>(b)];
          const auto ud = static_cast<std::size_t>(d);
          const int h = halo_[ud];
          p.lo[ud] = delta[ud] < 0 ? -h : lcount_[ud];
          p.hi[ud] = delta[ud] < 0 ? 0 : lcount_[ud] + h;
          if (neighbor_rank(d, delta[ud]) >= 0) {
            any_e = true;
            coord[static_cast<std::size_t>(proc_dim_[ud])] += delta[ud];
          }
        }
        if (any_e) {
          recvs.emplace_back(view_.rank_of(coord), p);
        }
      }
      // Send side: every valid E/U choice combination with >= 1 E choice
      // names one receiver pulling direction `delta` from this member.
      for (int mask = 0; mask < (1 << nnz); ++mask) {
        auto coord = view_coord_;
        bool valid = true;
        bool any_e = false;
        Piece p = rest_of_slab;
        for (int b = 0; b < nnz && valid; ++b) {
          const int d = nz[static_cast<std::size_t>(b)];
          const auto ud = static_cast<std::size_t>(d);
          const int h = halo_[ud];
          if ((mask & (1 << b)) == 0) {
            // E choice: receiver one step against delta; gets my owned face.
            valid = neighbor_rank(d, -delta[ud]) >= 0;
            coord[static_cast<std::size_t>(proc_dim_[ud])] -= delta[ud];
            p.lo[ud] = delta[ud] > 0 ? 0 : lcount_[ud] - h;
            p.hi[ud] = delta[ud] > 0 ? h : lcount_[ud];
            any_e = true;
          } else {
            // U choice: receiver at my coordinate beside the domain
            // boundary; gets my frame margin on delta's side.
            valid = neighbor_rank(d, delta[ud]) < 0;
            p.lo[ud] = delta[ud] > 0 ? lcount_[ud] : -h;
            p.hi[ud] = delta[ud] > 0 ? lcount_[ud] + h : 0;
          }
        }
        if (valid && any_e) {
          sends.emplace_back(view_.rank_of(coord), p);
        }
      }
    }
  }

  /// Group a flat (peer, piece) list by peer in place — peers in order of
  /// first appearance, each peer's pieces in list order, so both ends
  /// concatenate a pair's pieces in ascending-code order and the receiver
  /// splits a message by its known piece volumes alone (a pair exchanges
  /// at most one piece per code: distinct masks name distinct receivers) —
  /// and return each peer's run, the exchange's one entry per peer.
  static std::vector<std::pair<int, PieceRun>> runs_by_peer(Pieces& pieces) {
    std::vector<std::pair<int, PieceRun>> runs;
    runs.reserve(pieces.size());
    for (std::size_t k = 0; k < pieces.size(); ++k) {
      const int peer = pieces[k].first;
      auto it = std::find_if(runs.begin(), runs.end(),
                             [&](const auto& r) { return r.first == peer; });
      if (it == runs.end()) {
        runs.push_back({peer, {k, 1}});
        continue;
      }
      // Move the piece to the end of its peer's run; later runs shift.
      const std::size_t end = it->second.first + it->second.count;
      std::rotate(pieces.begin() + static_cast<std::ptrdiff_t>(end),
                  pieces.begin() + static_cast<std::ptrdiff_t>(k),
                  pieces.begin() + static_cast<std::ptrdiff_t>(k + 1));
      ++it->second.count;
      for (++it; it != runs.end(); ++it) {
        ++it->second.first;
      }
    }
    return runs;
  }

  Context* ctx_ = nullptr;
  ProcView view_{};
  Extents extents_{};
  Dists dists_{};
  Halos halo_{};
  std::array<DimMap, UR> maps_{};
  std::array<int, UR> proc_dim_{};  ///< grid dim per array dim; -1 for star
  bool member_ = false;
  std::array<int, kMaxProcDims> view_coord_{};
  std::array<int, UR> my_coord_{};
  std::array<int, UR> lcount_{};
  std::array<int, UR> lower_{};  ///< first owned global index (block/star dims)
  std::array<std::ptrdiff_t, UR> strides_{};
  std::ptrdiff_t offset_ = 0;
  std::shared_ptr<std::vector<T>> store_;
};

template <class T>
using DistArray1 = DistArray<T, 1>;
template <class T>
using DistArray2 = DistArray<T, 2>;
template <class T>
using DistArray3 = DistArray<T, 3>;

}  // namespace kali
