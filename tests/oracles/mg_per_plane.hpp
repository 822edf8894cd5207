// Per-plane multigrid: the reference the stacked mg2 and mg3's stacked
// zebra sweep are proven against.
//
// The library's mg2 relaxes a stack of independent planes at once, with one
// message per peer for all of them, and mg3_zebra_sweep hands each
// processor column's planes of one parity to it as one stack, after
// computing the residual on those planes only.  This file keeps the form
// they replaced, rebuilt from public calls: a 2-D mg2 on one plane
// (DistArray2, dist (*, block) over a 1-D view, one rank taking the
// agglomerated levels) and a zebra half-sweep that computes the residual
// on every plane, then runs `doall k on owner(u(*, *, k))` with one plane
// mg2 after another.  Each plane's arithmetic is the same in both forms, so
// the solutions must match byte for byte; the stacked forms send fewer
// messages.
#pragma once

#include <cmath>
#include <vector>

#include "kernels/thomas.hpp"
#include "runtime/doall.hpp"
#include "runtime/remap.hpp"
#include "solvers/mg2.hpp"
#include "solvers/mg3.hpp"

namespace kali::oracles {

/// One zebra half-sweep on a single plane (parity 0: even lines).
inline void plane_zebra_sweep(const Op2& op, DistArray2<double>& u,
                              const DistArray2<double>& f, int parity) {
  if (!u.participating()) {
    return;
  }
  const int nx = u.extent(0) - 1;
  const int ny = u.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  std::vector<double> rhs(static_cast<std::size_t>(nx - 1));
  std::vector<double> sol(rhs.size());
  auto solve_line = [&](int j) {
    for (int i = 1; i <= nx - 1; ++i) {
      rhs[static_cast<std::size_t>(i - 1)] =
          f(i, j) - cy * (u.at_halo({i, j - 1}) + u.at_halo({i, j + 1}));
    }
    thomas_solve_const(cx, dg, cx, rhs, sol);
    for (int i = 1; i <= nx - 1; ++i) {
      u(i, j) = sol[static_cast<std::size_t>(i - 1)];
    }
  };
  doall_overlap(u.exchange_halo_begin(), u,
                {Range{0, 0}, Range{parity == 0 ? 2 : 1, ny - 1, 2}},
                [&](int, int j) { solve_line(j); },
                (kThomasFlopsPerRow + 4.0) * (nx - 1));
}

/// r = f - A u on one plane's interior, copy-in hidden behind the interior.
inline void plane_resid2(const Op2& op, const DistArray2<double>& u,
                         const DistArray2<double>& f, DistArray2<double>& r) {
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  auto uin = u.clone();
  doall_overlap(uin.exchange_halo_begin(), uin,
                {Range{1, nx - 1}, Range{1, ny - 1}},
                [&](int i, int j) {
                  const double au =
                      cx * (uin.at_halo({i - 1, j}) + uin.at_halo({i + 1, j})) +
                      cy * (uin.at_halo({i, j - 1}) + uin.at_halo({i, j + 1})) +
                      dg * uin.at_halo({i, j});
                  r(i, j) = f(i, j) - au;
                },
                10.0);
}

/// One mg2 V-cycle on a single plane u(0:nx, 0:ny), dist (*, block) with
/// y halo 1; the coarse levels that no longer fit the view run on its
/// first rank, restricted straight onto it.
inline void plane_mg2_cycle(const Op2& op, DistArray2<double>& u,
                            const DistArray2<double>& f,
                            const Mg2Options& opts = {}) {
  const int ny = u.extent(1) - 1;
  KALI_CHECK(ny >= 1 && (ny & (ny - 1)) == 0,
             "plane_mg2_cycle: ny must be a power of two");
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const ProcView& pv = u.view();
  const int nx = u.extent(0) - 1;
  plane_zebra_sweep(op, u, f, 0);
  plane_zebra_sweep(op, u, f, 1);
  if (ny <= 2) {
    for (int s = 0; s < opts.coarsest_sweeps; ++s) {
      plane_zebra_sweep(op, u, f, 1);
    }
    return;
  }
  using D2 = DistArray2<double>;
  const D2::Dists dists{DimDist::star(), DimDist::block_dist()};
  const int nyc = ny / 2;

  // The coarse levels run on the first rank where nyc + 1 rows leave one
  // without any.
  const ProcView cv = detail::coarsenable(nyc + 1, pv.extent(0))
                          ? pv
                          : ProcView::grid1(1, pv.rank_of1(0));
  D2 r(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
  plane_resid2(op, u, f, r);
  D2 g(ctx, cv, {nx + 1, nyc + 1}, dists);
  {
    D2 re(ctx, cv, {nx + 1, nyc + 1}, dists);
    D2 ro(ctx, cv, {nx + 1, nyc + 1}, dists, {0, 1});
    copy_strided_dim(ctx, r, re, 1, /*s_stride=*/2, /*s_off=*/0,
                     /*d_stride=*/1, /*d_off=*/0, nyc + 1);
    copy_strided_dim_halo(ctx, r, ro, 1, /*s_stride=*/2, /*s_off=*/1,
                          /*d_stride=*/1, /*d_off=*/0, nyc);
    doall2(
        g, Range{1, nx - 1}, Range{1, nyc - 1},
        [&](int i, int K) {
          g(i, K) = 0.25 * ro.at_halo({i, K - 1}) + 0.5 * re(i, K) +
                    0.25 * ro.at_halo({i, K});
        },
        4.0);
  }

  D2 v(ctx, cv, {nx + 1, nyc + 1}, dists, {0, 1});
  Op2 coarse = op;
  coarse.hy = 2.0 * op.hy;
  plane_mg2_cycle(coarse, v, g, opts);

  D2 vtmp(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
  copy_strided_dim_halo(ctx, v, vtmp, 1, /*s_stride=*/1, /*s_off=*/0,
                        /*d_stride=*/2, /*d_off=*/0, nyc + 1);
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

/// mg3's zebra half-sweep one plane at a time: the residual on every
/// interior plane, then one plane mg2 per plane of this parity, in
/// sequence, on the plane's processor column.
inline void mg3_zebra_sweep_per_plane(const Op3& op, DistArray3<double>& u,
                                      const DistArray3<double>& f, int parity,
                                      const Mg3Options& opts = {}) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const int nx = u.extent(0) - 1, ny = u.extent(1) - 1, nz = u.extent(2) - 1;
  using D3 = DistArray3<double>;
  const D3::Dists dists3{DimDist::star(), DimDist::block_dist(),
                         DimDist::block_dist()};
  D3 r(ctx, u.view(), {nx + 1, ny + 1, nz + 1}, dists3, {0, 1, 0});
  {
    const double cx = op.cx(), cy = op.cy(), cz = op.cz(), dg = op.diag();
    auto uin = u.clone();
    doall_overlap(
        uin.exchange_halo_begin(), uin,
        {Range{1, nx - 1}, Range{1, ny - 1}, Range{1, nz - 1}},
        [&](int i, int j, int k) {
          const double au =
              cx * (uin.at_halo({i - 1, j, k}) + uin.at_halo({i + 1, j, k})) +
              cy * (uin.at_halo({i, j - 1, k}) + uin.at_halo({i, j + 1, k})) +
              cz * (uin.at_halo({i, j, k - 1}) + uin.at_halo({i, j, k + 1})) +
              dg * uin.at_halo({i, j, k});
          r(i, j, k) = f(i, j, k) - au;
        },
        14.0);
  }
  const Op2 pop = op.plane_op();
  doall_slice_owner(u, 2, Range{parity == 0 ? 2 : 1, nz - 1, 2}, [&](int k) {
    auto uplane = u.fix(2, k);
    auto rplane = r.fix(2, k);
    DistArray2<double> delta(ctx, uplane.view(), {nx + 1, ny + 1},
                             {DimDist::star(), DimDist::block_dist()}, {0, 1});
    for (int cyc = 0; cyc < opts.plane_cycles; ++cyc) {
      plane_mg2_cycle(pop, delta, rplane, opts.plane_mg2);
    }
    doall2(
        uplane, Range{1, nx - 1}, Range{1, ny - 1},
        [&](int i, int j) { uplane(i, j) += delta(i, j); }, 1.0);
  });
}

}  // namespace kali::oracles
