// The paper's `doall ... on owner(...)` parallel loops.
//
// A doall is SPMD: every processor of the current view calls it; each
// executes exactly the invocations its on-clause assigns to it
// ("strip-mining", refs [12, 13] of the paper).  The on-clause forms match
// the listings:
//
//   doall(A, r, body)                   doall i = r  on owner(A(i))
//   doall2(A, ri, rj, body)             doall (i,j)  on owner(A(i,j))
//   doall3(A, ...)                      3-D elementwise owner
//   doall_slice_owner(A, d, r, body)    doall i = r  on owner(A(.., i, ..))
//                                       — the *set* of processors owning the
//                                       slice with dim d fixed at i, e.g.
//                                       `on owner(r(i, *))` in Listing 7
//   doall_procs(pv, body)               doall ip = 1, p  on procs(ip)
//
// Ranges are Fortran-flavoured: inclusive bounds with a stride, so the
// zebra loops `doall k = 2, nz-2, 2` translate directly.
//
// The optional `flops_per_iter` charges modeled computation for the loop
// body (the KF1 compiler knows the statement cost; here the caller states
// it).  Communication for right-hand-side reads is made explicit by the
// caller via DistArray::copy_in()/exchange_halo() — the code the compiler
// would generate for copy-in/copy-out semantics — or hidden behind the
// loop's interior by doall_overlap.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "runtime/dist_array.hpp"

namespace kali {

/// Inclusive Fortran-style loop range with stride.
struct Range {
  int lo = 0;
  int hi = -1;  ///< inclusive; hi < lo is an empty range
  int step = 1;

  /// The single stride-validation point: contains() and the doall
  /// strip-miners (owned_in_range) all funnel through here, so a
  /// non-positive step fails loudly everywhere instead of silently
  /// selecting nothing in one place and throwing in another.
  void require_valid() const {
    KALI_CHECK(step >= 1, "Range: step must be >= 1");
  }

  [[nodiscard]] bool contains(int i) const {
    require_valid();
    return i >= lo && i <= hi && (i - lo) % step == 0;
  }
};

namespace detail {

/// Global indices of `r` that processor-coordinate-c owns along map `m`,
/// ascending.  Block distributions intersect analytically; others filter.
inline std::vector<int> owned_in_range(const DimMap& m, int c, Range r) {
  r.require_valid();
  std::vector<int> out;
  if (r.hi < r.lo) {
    return out;
  }
  if (m.kind() == DistKind::kStar) {
    for (int i = r.lo; i <= r.hi; i += r.step) {
      out.push_back(i);
    }
    return out;
  }
  if (m.kind() == DistKind::kBlock) {
    if (m.count(c) == 0) {
      return out;
    }
    const int blo = m.block_lower(c);
    const int bhi = m.block_upper(c);
    int first = r.lo;
    if (blo > first) {
      first += ((blo - first) + r.step - 1) / r.step * r.step;
    }
    const int last = std::min(r.hi, bhi);
    for (int i = first; i <= last; i += r.step) {
      out.push_back(i);
    }
    return out;
  }
  for (int i = r.lo; i <= r.hi; i += r.step) {
    if (m.owner(i) == c) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace detail

/// doall i = r on owner(A(i)).
template <class T, class Body>
void doall(const DistArray1<T>& A, Range r, Body body,
           double flops_per_iter = 0.0) {
  if (!A.participating()) {
    return;
  }
  const auto is = detail::owned_in_range(A.map(0), A.my_coord(0), r);
  for (int i : is) {
    body(i);
  }
  A.context().compute(flops_per_iter * static_cast<double>(is.size()));
}

/// doall (i, j) = ri * rj on owner(A(i, j)).
template <class T, class Body>
void doall2(const DistArray2<T>& A, Range ri, Range rj, Body body,
            double flops_per_iter = 0.0) {
  if (!A.participating()) {
    return;
  }
  const auto is = detail::owned_in_range(A.map(0), A.my_coord(0), ri);
  const auto js = detail::owned_in_range(A.map(1), A.my_coord(1), rj);
  for (int i : is) {
    for (int j : js) {
      body(i, j);
    }
  }
  A.context().compute(flops_per_iter * static_cast<double>(is.size()) *
                      static_cast<double>(js.size()));
}

/// doall (i, j, k) on owner(A(i, j, k)).
template <class T, class Body>
void doall3(const DistArray3<T>& A, Range ri, Range rj, Range rk, Body body,
            double flops_per_iter = 0.0) {
  if (!A.participating()) {
    return;
  }
  const auto is = detail::owned_in_range(A.map(0), A.my_coord(0), ri);
  const auto js = detail::owned_in_range(A.map(1), A.my_coord(1), rj);
  const auto ks = detail::owned_in_range(A.map(2), A.my_coord(2), rk);
  for (int i : is) {
    for (int j : js) {
      for (int k : ks) {
        body(i, j, k);
      }
    }
  }
  A.context().compute(flops_per_iter * static_cast<double>(is.size()) *
                      static_cast<double>(js.size()) *
                      static_cast<double>(ks.size()));
}

// --- copy-in hidden behind the interior ------------------------------------
//
// A stencil doall's copy-in is communication the compiler generates, so the
// runtime chooses when its wire time is paid.  doall_overlap charges the
// iterations that read no ghost cell while the halo exchange is in flight:
//
//   doall_overlap(H.exchange_halo_begin(), H, {ri, rj}, body, flops);
//
// The body computes bit-identical data, since every index is still written
// once; only the compute charge is split in two, around the wait.

/// doall over the product of `ranges` on owner(H), for a body that reads
/// H's ghost cells, with H's halo exchange `ex` in flight.  Charges the
/// iterations at least halo(d) cells inside the owned slab along every dim
/// d (they read no ghost), then ex.finish(), then the rest.  The host runs
/// the body after the finish, in plain row-major order: the model is what
/// overlaps, and the body must charge nothing itself.
template <class T, int R, class Body>
void doall_overlap(PendingExchange ex, const DistArray<T, R>& H,
                   const std::array<Range, static_cast<std::size_t>(R)>& ranges,
                   Body body, double flops_per_iter = 0.0) {
  if (!H.participating()) {
    ex.finish();
    return;
  }
  double all = 1.0;
  double interior = 1.0;
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    const std::vector<int> is =
        detail::owned_in_range(H.map(d), H.my_coord(d), ranges[ud]);
    const int h = H.halo(d);
    all *= static_cast<double>(is.size());
    interior *= static_cast<double>(std::count_if(is.begin(), is.end(), [&](int i) {
      return h == 0 || (i - H.own_lower(d) >= h && H.own_upper(d) - i >= h);
    }));
  }
  Context& ctx = H.context();
  ctx.compute(flops_per_iter * interior);
  ex.finish();
  if constexpr (R == 1) {
    doall(H, ranges[0], body);
  } else if constexpr (R == 2) {
    doall2(H, ranges[0], ranges[1], body);
  } else {
    doall3(H, ranges[0], ranges[1], ranges[2], body);
  }
  ctx.compute(flops_per_iter * (all - interior));
}

/// doall i = r on owner(A(..., i, ...)) where dim `fixed_dim` is fixed at i
/// and every other index is `*`: the on-set is the whole processor slice
/// owning that hyperplane (Listing 7's `on owner(r(i, *))`).  The body
/// typically fixes/localizes A at i and calls a parallel kernel on the
/// resulting sub-view.
template <class T, int R, class Body>
void doall_slice_owner(const DistArray<T, R>& A, int fixed_dim, Range r,
                       Body body, double flops_per_iter = 0.0) {
  if (!A.participating()) {
    return;
  }
  const auto is =
      detail::owned_in_range(A.map(fixed_dim), A.my_coord(fixed_dim), r);
  for (int i : is) {
    body(i);
  }
  A.context().compute(flops_per_iter * static_cast<double>(is.size()));
}

/// doall ip = 1, p on procs(ip): every member of `pv` runs body once with
/// its own row-major linear index (0-based here).
template <class Body>
void doall_procs(Context& ctx, const ProcView& pv, Body body) {
  if (!pv.contains(ctx.rank())) {
    return;
  }
  body(pv.linear_index_of(ctx.rank()));
}

/// Parallel reduction over owned elements selected by a range product:
/// every member gets the reduced value (replicated scalar semantics).
template <class T, class Fn>
double doall2_sum(const DistArray2<T>& A, Range ri, Range rj, Fn per_element) {
  double local = 0.0;
  doall2(A, ri, rj, [&](int i, int j) { local += per_element(i, j); }, 1.0);
  if (!A.participating()) {
    return 0.0;
  }
  return allreduce_sum(A.context(), A.view(), local);
}

}  // namespace kali
