#include "solvers/mg3.hpp"

#include <cmath>

#include "machine/context.hpp"
#include "runtime/doall.hpp"
#include "runtime/remap.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

/// r = f - A u on interior points; r's boundary planes stay zero.  Does u's
/// copy-in itself, hidden behind the interior points.
void resid3(const Op3& op, const DistArray3<double>& u,
            const DistArray3<double>& f, DistArray3<double>& r) {
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1, nz = f.extent(2) - 1;
  const double cx = op.cx(), cy = op.cy(), cz = op.cz(), dg = op.diag();
  auto uin = u.clone();
  auto body = [&](int i, int j, int k) {
    const double au =
        cx * (uin.at_halo({i - 1, j, k}) + uin.at_halo({i + 1, j, k})) +
        cy * (uin.at_halo({i, j - 1, k}) + uin.at_halo({i, j + 1, k})) +
        cz * (uin.at_halo({i, j, k - 1}) + uin.at_halo({i, j, k + 1})) +
        dg * uin.at_halo({i, j, k});
    r(i, j, k) = f(i, j, k) - au;
  };
  doall_overlap(uin.exchange_halo_begin(), uin,
                {Range{1, nx - 1}, Range{1, ny - 1}, Range{1, nz - 1}}, body,
                14.0);
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
  //   call resid3(r, u, f; procs)
  //   doall k on owner(u(*, *, k)):  call mg2(u(*,*,k), r(*,*,k); ...)
  using D3 = DistArray3<double>;
  const typename D3::Dists dists3{DimDist::star(), DimDist::block_dist(),
                                  DimDist::block_dist()};
  D3 r(ctx, u.view(), {nx + 1, ny + 1, nz + 1}, dists3, {0, 1, 0});
  resid3(op, u, f, r);

  const Op2 pop = op.plane_op();
  const int first = parity == 0 ? 2 : 1;
  doall_slice_owner(u, 2, Range{first, nz - 1, 2}, [&](int k) {
    auto uplane = u.fix(2, k);
    auto rplane = r.fix(2, k);
    // Correction form: the plane equation for the update delta is
    // A_plane delta = r|plane (off-plane couplings are already in r).
    DistArray2<double> delta(ctx, uplane.view(), {nx + 1, ny + 1},
                             {DimDist::star(), DimDist::block_dist()}, {0, 1});
    for (int cyc = 0; cyc < opts.plane_cycles; ++cyc) {
      mg2_cycle(pop, delta, rplane, opts.plane_mg2);
    }
    doall2(
        uplane, Range{1, nx - 1}, Range{1, ny - 1},
        [&](int i, int j) { uplane(i, j) += delta(i, j); }, 1.0);
  });
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
  Group g = u.group();
  return std::sqrt(allreduce_sum(u.context(), g, local));
}

void mg3_cycle(const Op3& op, DistArray3<double>& u, const DistArray3<double>& f,
               const Mg3Options& opts) {
  const int nz = u.extent(2) - 1;  // the coarsened extent
  KALI_CHECK(nz >= 1 && (nz & (nz - 1)) == 0,
             "mg3_cycle: nz must be a power of two");
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const ProcView& pv = u.view();
  const int nx = u.extent(0) - 1, ny = u.extent(1) - 1;

  // perform zebra relaxation on even planes, then odd planes
  mg3_zebra_sweep(op, u, f, 0, opts);
  mg3_zebra_sweep(op, u, f, 1, opts);

  // recursively solve the z-semicoarsened coarse grid problem
  if (nz <= 2) {
    return;  // the plane solve above already handled the single plane
  }
  const int nzc = nz / 2;

  using D3 = DistArray3<double>;
  const typename D3::Dists dists3{DimDist::star(), DimDist::block_dist(),
                                  DimDist::block_dist()};

  if (!detail::coarsenable(nzc + 1, pv.extent(1)) && pv.extent(1) > 1) {
    // Agglomerate the correction problem onto the first processor column
    // (z becomes single-owner; y stays distributed) and continue there.
    D3 r(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists3);
    resid3(op, u, f, r);
    ProcView pvz = pv.sub(1, 0, 1);
    D3 r1(ctx, pvz, {nx + 1, ny + 1, nz + 1}, dists3);
    redistribute(ctx, r, r1);
    D3 v1(ctx, pvz, {nx + 1, ny + 1, nz + 1}, dists3, {0, 1, 1});
    if (v1.participating()) {
      for (int c = 0; c < opts.gamma; ++c) {
        mg3_cycle(op, v1, r1, opts);
      }
    }
    D3 v(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists3);
    redistribute(ctx, v1, v);
    doall3(
        u, Range{1, nx - 1}, Range{1, ny - 1}, Range{1, nz - 1},
        [&](int i, int j, int k) { u(i, j, k) += v(i, j, k); }, 1.0);
    return;
  }
  D3 r(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists3, {0, 0, 1});
  resid3(op, u, f, r);

  // rest3: full weighting in z at even fine planes, injected to coarse.
  // Split the fine residual by plane parity onto the coarse layout, then
  // weight on the coarse side (mirror of intrp3 below): re(K) = r(2K),
  // ro(K) = r(2K+1); ro rides copy_strided_dim_halo so the stencil's K-1/K
  // ghosts arrive inside the remap messages — no fine-grid halo exchange of
  // r and no full-size temporary.
  D3 g(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists3);
  {
    D3 re(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists3);
    D3 ro(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists3, {0, 0, 1});
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

  D3 v(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists3, {0, 1, 1});
  Op3 coarse = op;
  coarse.hz = 2.0 * op.hz;
  for (int c = 0; c < opts.gamma; ++c) {
    mg3_cycle(coarse, v, g, opts);
  }

  // intrp3 (Listing 10): modify even planes, then odd planes.  The remap
  // delivers vtmp's even-plane ghosts in its own messages — one
  // redistribution per level switch instead of remap + halo rounds.
  D3 vtmp(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists3, {0, 0, 1});
  copy_strided_dim_halo(ctx, v, vtmp, 2, /*s_stride=*/1, /*s_off=*/0,
                        /*d_stride=*/2, /*d_off=*/0, nzc + 1);
  doall3(
      u, Range{1, nx - 1}, Range{1, ny - 1}, Range{2, nz - 2, 2},
      [&](int i, int j, int k) { u(i, j, k) += vtmp(i, j, k); }, 1.0);
  doall3(
      u, Range{1, nx - 1}, Range{1, ny - 1}, Range{1, nz - 1, 2},
      [&](int i, int j, int k) {
        u(i, j, k) += 0.5 * (vtmp.at_halo({i, j, k - 1}) + vtmp.at_halo({i, j, k + 1}));
      },
      3.0);

  if (opts.post_zebra) {
    mg3_zebra_sweep(op, u, f, 0, opts);
    mg3_zebra_sweep(op, u, f, 1, opts);
  }
}

}  // namespace kali
