#include "solvers/mg3.hpp"

#include <cmath>
#include <vector>

#include "machine/context.hpp"
#include "runtime/doall.hpp"
#include "runtime/remap.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

using D3 = DistArray3<double>;

/// u's layout on every level: (*, block, block).
const D3::Dists kDists3{DimDist::star(), DimDist::block_dist(),
                        DimDist::block_dist()};

/// r = f - A u on the interior points of the z-planes `planes`, handed to
/// `store(i, j, k, r)`.  Does u's copy-in itself, hidden behind the
/// interior points; every member joins the halo exchange, whether it holds
/// planes of `planes` or not.
template <class Store>
void resid3(const Op3& op, const DistArray3<double>& u,
            const DistArray3<double>& f, Range planes, Store store) {
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), cz = op.cz(), dg = op.diag();
  auto uin = u.clone();
  auto body = [&](int i, int j, int k) {
    const double au =
        cx * (uin.at_halo({i - 1, j, k}) + uin.at_halo({i + 1, j, k})) +
        cy * (uin.at_halo({i, j - 1, k}) + uin.at_halo({i, j + 1, k})) +
        cz * (uin.at_halo({i, j, k - 1}) + uin.at_halo({i, j, k + 1})) +
        dg * uin.at_halo({i, j, k});
    store(i, j, k, f(i, j, k) - au);
  };
  doall_overlap(uin.exchange_halo_begin(), uin,
                {Range{1, nx - 1}, Range{1, ny - 1}, planes}, body, 14.0);
}

/// resid3 on every interior plane into r (r's boundary planes stay zero).
void resid3(const Op3& op, const DistArray3<double>& u,
            const DistArray3<double>& f, DistArray3<double>& r) {
  resid3(op, u, f, Range{1, f.extent(2) - 2},
         [&](int i, int j, int k, double v) { r(i, j, k) = v; });
}

/// The coarse-grid correction: restrict the fine residual r onto the view
/// `cv` (u's view or a leading column range of it), run opts.gamma cycles
/// on the z-semicoarsened grid there, interpolate the correction back and
/// add it to u.  The level switches plan across the two views, so
/// restriction writes straight onto cv and interpolation reads straight
/// back from it.
void correct3(const Op3& op, D3& u, const D3& r, const ProcView& cv,
              const Mg3Options& opts) {
  Context& ctx = u.context();
  const int nx = u.extent(0) - 1, ny = u.extent(1) - 1, nz = u.extent(2) - 1;
  const int nzc = nz / 2;

  // rest3: full weighting in z at even fine planes, injected to coarse.
  // Split the fine residual by plane parity onto the coarse layout, then
  // weight on the coarse side (mirror of intrp3 below): re(K) = r(2K),
  // ro(K) = r(2K+1); ro rides copy_strided_dim_halo so the stencil's K-1/K
  // ghosts arrive inside the remap messages — no fine-grid halo exchange of
  // r and no full-size temporary.
  D3 g(ctx, cv, {nx + 1, ny + 1, nzc + 1}, kDists3);
  {
    D3 re(ctx, cv, {nx + 1, ny + 1, nzc + 1}, kDists3);
    D3 ro(ctx, cv, {nx + 1, ny + 1, nzc + 1}, kDists3, {0, 0, 1});
    copy_strided_dim(ctx, r, re, 2, /*s_stride=*/2, /*s_off=*/0,
                     /*d_stride=*/1, /*d_off=*/0, nzc + 1);
    copy_strided_dim_halo(ctx, r, ro, 2, /*s_stride=*/2, /*s_off=*/1,
                          /*d_stride=*/1, /*d_off=*/0, nzc);
    doall3(
        g, Range{1, nx - 1}, Range{1, ny - 1}, Range{1, nzc - 1},
        [&](int i, int j, int K) {
          g(i, j, K) = 0.25 * ro.at_halo({i, j, K - 1}) + 0.5 * re(i, j, K) +
                       0.25 * ro.at_halo({i, j, K});
        },
        4.0);
  }

  D3 v(ctx, cv, {nx + 1, ny + 1, nzc + 1}, kDists3, {0, 1, 1});
  Op3 cop = op;
  cop.hz = 2.0 * op.hz;
  for (int c = 0; c < opts.gamma; ++c) {
    mg3_cycle(cop, v, g, opts);
  }

  // intrp3 (Listing 10): modify even planes, then odd planes.  The remap
  // delivers vtmp's even-plane ghosts in its own messages — one
  // redistribution per level switch instead of remap + halo rounds.
  D3 vtmp(ctx, u.view(), {nx + 1, ny + 1, nz + 1}, kDists3, {0, 0, 1});
  copy_strided_dim_halo(ctx, v, vtmp, 2, /*s_stride=*/1, /*s_off=*/0,
                        /*d_stride=*/2, /*d_off=*/0, nzc + 1);
  doall3(
      u, Range{1, nx - 1}, Range{1, ny - 1}, Range{2, nz - 2, 2},
      [&](int i, int j, int k) { u(i, j, k) += vtmp(i, j, k); }, 1.0);
  doall3(
      u, Range{1, nx - 1}, Range{1, ny - 1}, Range{1, nz - 1, 2},
      [&](int i, int j, int k) {
        u(i, j, k) +=
            0.5 * (vtmp.at_halo({i, j, k - 1}) + vtmp.at_halo({i, j, k + 1}));
      },
      3.0);
}

}  // namespace

void mg3_zebra_sweep(const Op3& op, DistArray3<double>& u,
                     const DistArray3<double>& f, int parity,
                     const Mg3Options& opts) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const int nx = u.extent(0) - 1, ny = u.extent(1) - 1, nz = u.extent(2) - 1;

  // perform zebra relaxation on planes of this parity:
  //   doall k on owner(u(*, *, k)):  call mg2(u(*,*,k), r(*,*,k); ...)
  // as one mg2 per processor column on the stack of its planes: plane b of
  // the stack is z-plane ks[b], and the column's view is procs(*, kp).
  const Range planes{parity == 0 ? 2 : 1, nz - 1, 2};
  const std::vector<int> ks =
      detail::owned_in_range(u.map(2), u.my_coord(2), planes);
  const int nb = static_cast<int>(ks.size());
  const DistArray3<double>::Dists dists{DimDist::star(), DimDist::block_dist(),
                                        DimDist::star()};
  const ProcView col = u.view().fix(u.proc_dim(2), u.my_coord(2));
  auto plane = [&](int k) { return (k - ks.front()) / 2; };

  // Correction form: the plane equation for the update delta is
  // A_plane delta = r|plane (off-plane couplings are already in r), so the
  // residual is needed on this parity's planes only.
  DistArray3<double> r;
  if (nb > 0) {
    r = DistArray3<double>(ctx, col, {nx + 1, ny + 1, nb}, dists);
  }
  resid3(op, u, f, planes,
         [&](int i, int j, int k, double v) { r(i, j, plane(k)) = v; });
  if (nb == 0) {
    return;
  }
  DistArray3<double> delta(ctx, col, {nx + 1, ny + 1, nb}, dists, {0, 1, 0});
  const Op2 pop = op.plane_op();
  for (int cyc = 0; cyc < opts.plane_cycles; ++cyc) {
    mg2_cycle(pop, delta, r, opts.plane_mg2);
  }
  doall3(
      u, Range{1, nx - 1}, Range{1, ny - 1}, planes,
      [&](int i, int j, int k) { u(i, j, k) += delta(i, j, plane(k)); }, 1.0);
}

double mg3_residual_norm(const Op3& op, const DistArray3<double>& u,
                         const DistArray3<double>& f) {
  if (!u.participating()) {
    return 0.0;
  }
  auto uin = u.copy_in();
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1, nz = f.extent(2) - 1;
  const double cx = op.cx(), cy = op.cy(), cz = op.cz(), dg = op.diag();
  double local = 0.0;
  doall3(
      u, Range{1, nx - 1}, Range{1, ny - 1}, Range{1, nz - 1},
      [&](int i, int j, int k) {
        const double au =
            cx * (uin.at_halo({i - 1, j, k}) + uin.at_halo({i + 1, j, k})) +
            cy * (uin.at_halo({i, j - 1, k}) + uin.at_halo({i, j + 1, k})) +
            cz * (uin.at_halo({i, j, k - 1}) + uin.at_halo({i, j, k + 1})) +
            dg * uin.at_halo({i, j, k});
        const double res = f(i, j, k) - au;
        local += res * res;
      },
      15.0);
  return std::sqrt(allreduce_sum(u.context(), u.view(), local));
}

void mg3_cycle(const Op3& op, DistArray3<double>& u, const DistArray3<double>& f,
               const Mg3Options& opts) {
  const int nz = u.extent(2) - 1;  // the coarsened extent
  KALI_CHECK(nz >= 1 && (nz & (nz - 1)) == 0,
             "mg3_cycle: nz must be a power of two");
  if (!u.participating()) {
    return;
  }
  const ProcView& pv = u.view();

  // perform zebra relaxation on even planes, then odd planes
  mg3_zebra_sweep(op, u, f, 0, opts);
  mg3_zebra_sweep(op, u, f, 1, opts);

  // recursively solve the z-semicoarsened coarse grid problem
  if (nz <= 2) {
    return;  // the plane solve above already handled the single plane
  }
  const int nx = u.extent(0) - 1, ny = u.extent(1) - 1;
  D3 r(u.context(), pv, {nx + 1, ny + 1, nz + 1}, kDists3);
  resid3(op, u, f, r);
  // Where the next level would leave a processor column without planes,
  // the coarse levels agglomerate onto the widest leading column range that
  // holds them all (y keeps its rows), so the recursion never agglomerates
  // again and each zebra half-sweep's plane solves still spread over
  // several columns.  Only the coarse view changes, so the values do not
  // depend on the processor grid.
  const int nzc = nz / 2;
  correct3(op, u, r,
           detail::coarsenable(nzc + 1, pv.extent(1))
               ? pv
               : pv.sub(1, 0, detail::agglomeration_width(nzc, pv.extent(1))),
           opts);

  if (opts.post_zebra) {
    mg3_zebra_sweep(op, u, f, 0, opts);
    mg3_zebra_sweep(op, u, f, 1, opts);
  }
}

}  // namespace kali
