// Unfused multigrid level switches, rebuilt from public calls only: the
// oracle mg2_cycle / mg3_cycle's fused level switches are proven against.
//
// The solvers batch each level switch's remap and the halo exchange that
// follows it into one scheduled redistribution (copy_strided_dim_halo).
// These cycles do the same arithmetic in the same order with a separate
// remap round and halo round per switch:
//
//   restriction   halo-exchange r, full-weight on the fine grid into gtmp,
//                 then inject gtmp's even lines with copy_strided_dim;
//   interpolation copy_strided_dim the coarse correction onto the fine even
//                 lines, then exchange_halo for the odd lines' ghosts.
//
// So the solutions must match the solvers' byte for byte while sending more
// messages.  mg3_cycle_unfused unfuses only the z-level switch; its plane
// solves are the library's own mg3_zebra_sweep.
#pragma once

#include "runtime/doall.hpp"
#include "runtime/redistribute.hpp"
#include "runtime/remap.hpp"
#include "solvers/mg2.hpp"
#include "solvers/mg3.hpp"

namespace kali::oracles {

/// mg2_cycle with separate remap and halo rounds at every level switch.
inline void mg2_cycle_unfused(const Op2& op, DistArray2<double>& u,
                              const DistArray2<double>& f,
                              const Mg2Options& opts = {}) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const ProcView& pv = u.view();
  const int nx = u.extent(0) - 1;
  const int ny = u.extent(1) - 1;
  mg2_zebra_sweep(op, u, f, 0);
  mg2_zebra_sweep(op, u, f, 1);
  if (ny <= 2) {
    for (int s = 0; s < opts.coarsest_sweeps; ++s) {
      mg2_zebra_sweep(op, u, f, 1);
    }
    return;
  }
  using D2 = DistArray2<double>;
  const D2::Dists dists{DimDist::star(), DimDist::block_dist()};
  const int nyc = ny / 2;
  auto resid = [&](D2& r) {  // r = f - A u, as mg2's resid2
    const double cx = op.cx(), cy = op.cy(), dg = op.diag();
    auto uin = u.clone();
    uin.exchange_halo();
    doall2(
        r, Range{1, nx - 1}, Range{1, ny - 1},
        [&](int i, int j) {
          const double au =
              cx * (uin.at_halo({i - 1, j}) + uin.at_halo({i + 1, j})) +
              cy * (uin.at_halo({i, j - 1}) + uin.at_halo({i, j + 1})) +
              dg * uin.at_halo({i, j});
          r(i, j) = f(i, j) - au;
        },
        10.0);
  };

  if (!detail::coarsenable(nyc + 1, pv.extent(0)) && pv.count() > 1) {
    D2 r(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
    resid(r);
    const ProcView pv1 = ProcView::grid1(1, pv.rank_of1(0));
    D2 r1(ctx, pv1, {nx + 1, ny + 1}, dists);
    redistribute(ctx, r, r1);
    D2 v1(ctx, pv1, {nx + 1, ny + 1}, dists, {0, 1});
    if (v1.participating()) {
      mg2_cycle_unfused(op, v1, r1, opts);
    }
    D2 v(ctx, pv, {nx + 1, ny + 1}, dists);
    redistribute(ctx, v1, v);
    doall2(
        u, Range{1, nx - 1}, Range{1, ny - 1},
        [&](int i, int j) { u(i, j) += v(i, j); }, 1.0);
    return;
  }

  D2 r(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
  resid(r);
  D2 g(ctx, pv, {nx + 1, nyc + 1}, dists);
  r.exchange_halo();
  D2 gtmp(ctx, pv, {nx + 1, ny + 1}, dists);
  doall2(
      gtmp, Range{1, nx - 1}, Range{2, ny - 2, 2},
      [&](int i, int j) {
        gtmp(i, j) = 0.25 * r.at_halo({i, j - 1}) + 0.5 * r.at_halo({i, j}) +
                     0.25 * r.at_halo({i, j + 1});
      },
      4.0);
  copy_strided_dim(ctx, gtmp, g, 1, /*s_stride=*/2, /*s_off=*/0,
                   /*d_stride=*/1, /*d_off=*/0, nyc + 1);

  D2 v(ctx, pv, {nx + 1, nyc + 1}, dists, {0, 1});
  Op2 coarse = op;
  coarse.hy = 2.0 * op.hy;
  mg2_cycle_unfused(coarse, v, g, opts);

  D2 vtmp(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
  copy_strided_dim(ctx, v, vtmp, 1, /*s_stride=*/1, /*s_off=*/0,
                   /*d_stride=*/2, /*d_off=*/0, nyc + 1);
  vtmp.exchange_halo();
  doall2(
      u, Range{1, nx - 1}, Range{2, ny - 2, 2},
      [&](int i, int j) { u(i, j) += vtmp(i, j); }, 1.0);
  doall2(
      u, Range{1, nx - 1}, Range{1, ny - 1, 2},
      [&](int i, int j) {
        u(i, j) += 0.5 * (vtmp.at_halo({i, j - 1}) + vtmp.at_halo({i, j + 1}));
      },
      3.0);
}

/// mg3_cycle with separate remap and halo rounds at every z-level switch.
inline void mg3_cycle_unfused(const Op3& op, DistArray3<double>& u,
                              const DistArray3<double>& f,
                              const Mg3Options& opts = {}) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const ProcView& pv = u.view();
  const int nx = u.extent(0) - 1, ny = u.extent(1) - 1, nz = u.extent(2) - 1;
  mg3_zebra_sweep(op, u, f, 0, opts);
  mg3_zebra_sweep(op, u, f, 1, opts);
  if (nz <= 2) {
    return;
  }
  using D3 = DistArray3<double>;
  const D3::Dists dists{DimDist::star(), DimDist::block_dist(),
                        DimDist::block_dist()};
  const int nzc = nz / 2;
  auto resid = [&](D3& r) {  // r = f - A u, as mg3's resid3
    const double cx = op.cx(), cy = op.cy(), cz = op.cz(), dg = op.diag();
    auto uin = u.clone();
    uin.exchange_halo();
    doall3(
        r, Range{1, nx - 1}, Range{1, ny - 1}, Range{1, nz - 1},
        [&](int i, int j, int k) {
          const double au =
              cx * (uin.at_halo({i - 1, j, k}) + uin.at_halo({i + 1, j, k})) +
              cy * (uin.at_halo({i, j - 1, k}) + uin.at_halo({i, j + 1, k})) +
              cz * (uin.at_halo({i, j, k - 1}) + uin.at_halo({i, j, k + 1})) +
              dg * uin.at_halo({i, j, k});
          r(i, j, k) = f(i, j, k) - au;
        },
        14.0);
  };

  if (!detail::coarsenable(nzc + 1, pv.extent(1)) && pv.extent(1) > 1) {
    D3 r(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists);
    resid(r);
    const ProcView pvz = pv.sub(1, 0, 1);
    D3 r1(ctx, pvz, {nx + 1, ny + 1, nz + 1}, dists);
    redistribute(ctx, r, r1);
    D3 v1(ctx, pvz, {nx + 1, ny + 1, nz + 1}, dists, {0, 1, 1});
    if (v1.participating()) {
      for (int c = 0; c < opts.gamma; ++c) {
        mg3_cycle_unfused(op, v1, r1, opts);
      }
    }
    D3 v(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists);
    redistribute(ctx, v1, v);
    doall3(
        u, Range{1, nx - 1}, Range{1, ny - 1}, Range{1, nz - 1},
        [&](int i, int j, int k) { u(i, j, k) += v(i, j, k); }, 1.0);
    return;
  }

  D3 r(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists, {0, 0, 1});
  resid(r);
  D3 g(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists);
  r.exchange_halo();
  D3 gtmp(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists);
  doall3(
      gtmp, Range{1, nx - 1}, Range{1, ny - 1}, Range{2, nz - 2, 2},
      [&](int i, int j, int k) {
        gtmp(i, j, k) = 0.25 * r.at_halo({i, j, k - 1}) +
                        0.5 * r.at_halo({i, j, k}) +
                        0.25 * r.at_halo({i, j, k + 1});
      },
      4.0);
  copy_strided_dim(ctx, gtmp, g, 2, /*s_stride=*/2, /*s_off=*/0,
                   /*d_stride=*/1, /*d_off=*/0, nzc + 1);

  D3 v(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists, {0, 1, 1});
  Op3 coarse = op;
  coarse.hz = 2.0 * op.hz;
  for (int c = 0; c < opts.gamma; ++c) {
    mg3_cycle_unfused(coarse, v, g, opts);
  }

  D3 vtmp(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists, {0, 0, 1});
  copy_strided_dim(ctx, v, vtmp, 2, /*s_stride=*/1, /*s_off=*/0,
                   /*d_stride=*/2, /*d_off=*/0, nzc + 1);
  vtmp.exchange_halo();
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

  if (opts.post_zebra) {
    mg3_zebra_sweep(op, u, f, 0, opts);
    mg3_zebra_sweep(op, u, f, 1, opts);
  }
}

}  // namespace kali::oracles
