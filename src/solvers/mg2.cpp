#include "solvers/mg2.hpp"

#include <cmath>

#include "kernels/thomas.hpp"
#include "machine/context.hpp"
#include "runtime/doall.hpp"
#include "runtime/remap.hpp"
#include "support/check.hpp"

namespace kali {

namespace detail {
bool coarsenable(int npts, int nprocs) {
  DimMap m(DimDist::block_dist(), npts, nprocs);
  return m.count(nprocs - 1) >= 1;
}
}  // namespace detail

void mg2_zebra_sweep(const Op2& op, DistArray2<double>& u,
                     const DistArray2<double>& f, int parity) {
  if (!u.participating()) {
    return;
  }
  const int nx = u.extent(0) - 1;
  const int ny = u.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();

  const int first = parity == 0 ? 2 : 1;
  const Range lines{first, ny - 1, 2};
  std::vector<double> rhs(static_cast<std::size_t>(nx - 1));
  std::vector<double> sol(rhs.size());
  auto solve_line = [&](int j) {
    // Line system along x:  cx u(i-1,j) + dg u(i,j) + cx u(i+1,j) = rhs.
    for (int i = 1; i <= nx - 1; ++i) {
      rhs[static_cast<std::size_t>(i - 1)] =
          f(i, j) - cy * (u.at_halo({i, j - 1}) + u.at_halo({i, j + 1}));
    }
    thomas_solve_const(cx, dg, cx, rhs, sol);
    for (int i = 1; i <= nx - 1; ++i) {
      u(i, j) = sol[static_cast<std::size_t>(i - 1)];
    }
  };
  // Lines of the other colour feed the right-hand side; this colour's
  // lines never read each other, so the solve order is free, and the lines
  // away from the slab faces solve while the halo is in flight.  One
  // iteration per line: dim 0 is the line itself.
  doall_overlap(u.exchange_halo_begin(), u, {Range{0, 0}, lines},
                [&](int, int j) { solve_line(j); },
                (kThomasFlopsPerRow + 4.0) * (nx - 1));
}

namespace {

/// r = f - A u on interior points (r's boundary stays zero).  Does u's
/// copy-in itself, hidden behind the interior points.
void resid2(const Op2& op, const DistArray2<double>& u,
            const DistArray2<double>& f, DistArray2<double>& r) {
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  auto uin = u.clone();
  auto body = [&](int i, int j) {
    const double au = cx * (uin.at_halo({i - 1, j}) + uin.at_halo({i + 1, j})) +
                      cy * (uin.at_halo({i, j - 1}) + uin.at_halo({i, j + 1})) +
                      dg * uin.at_halo({i, j});
    r(i, j) = f(i, j) - au;
  };
  doall_overlap(uin.exchange_halo_begin(), uin,
                {Range{1, nx - 1}, Range{1, ny - 1}}, body, 10.0);
}

}  // namespace

double mg2_residual_norm(const Op2& op, const DistArray2<double>& u,
                         const DistArray2<double>& f) {
  if (!u.participating()) {
    return 0.0;
  }
  auto uin = u.copy_in();
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  const double s =
      doall2_sum(u, Range{1, nx - 1}, Range{1, ny - 1}, [&](int i, int j) {
        const double au = cx * (uin.at_halo({i - 1, j}) + uin.at_halo({i + 1, j})) +
                          cy * (uin.at_halo({i, j - 1}) + uin.at_halo({i, j + 1})) +
                          dg * uin.at_halo({i, j});
        const double res = f(i, j) - au;
        return res * res;
      });
  return std::sqrt(s);
}

void mg2_cycle(const Op2& op, DistArray2<double>& u, const DistArray2<double>& f,
               const Mg2Options& opts) {
  const int ny = u.extent(1) - 1;  // the coarsened extent
  KALI_CHECK(ny >= 1 && (ny & (ny - 1)) == 0,
             "mg2_cycle: ny must be a power of two");
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const ProcView& pv = u.view();
  const int nx = u.extent(0) - 1;

  // perform zebra relaxation on even lines, then odd lines
  mg2_zebra_sweep(op, u, f, 0);
  mg2_zebra_sweep(op, u, f, 1);

  if (ny <= 2) {
    // Coarsest grid: the zebra sweep solves the single interior line
    // exactly; a few extra sweeps polish the x-y coupling.
    for (int s = 0; s < opts.coarsest_sweeps; ++s) {
      mg2_zebra_sweep(op, u, f, 1);
    }
    return;
  }

  using D2 = DistArray2<double>;
  const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
  const int nyc = ny / 2;

  if (!detail::coarsenable(nyc + 1, pv.extent(0)) && pv.count() > 1) {
    // Block misalignment would leave a processor without rows: agglomerate
    // the correction problem A v = r onto one processor and run the
    // remaining levels there (standard practice on distributed memory).
    D2 r(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
    resid2(op, u, f, r);
    ProcView pv1 = ProcView::grid1(1, pv.rank_of1(0));
    const typename D2::Dists dists1{DimDist::star(), DimDist::block_dist()};
    D2 r1(ctx, pv1, {nx + 1, ny + 1}, dists1);
    redistribute(ctx, r, r1);
    D2 v1(ctx, pv1, {nx + 1, ny + 1}, dists1, {0, 1});
    if (v1.participating()) {
      mg2_cycle(op, v1, r1, opts);
    }
    D2 v(ctx, pv, {nx + 1, ny + 1}, dists);
    redistribute(ctx, v1, v);
    doall2(
        u, Range{1, nx - 1}, Range{1, ny - 1},
        [&](int i, int j) { u(i, j) += v(i, j); }, 1.0);
    return;
  }

  D2 r(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
  resid2(op, u, f, r);

  // rest2: full weighting in y at even fine lines, injected to coarse.
  // Split the fine residual by line parity onto the coarse layout first,
  // then weight on the coarse side: re(K) = r(2K) and ro(K) = r(2K+1).  The
  // weighting stencil needs ro at K-1 and K, so ro travels through
  // copy_strided_dim_halo, which delivers those ghosts inside the remap
  // messages — no fine-grid halo exchange of r and no full-size temporary.
  // g(i,K) = 0.25 r(2K-1) + 0.5 r(2K) + 0.25 r(2K+1).
  D2 g(ctx, pv, {nx + 1, nyc + 1}, dists);
  {
    D2 re(ctx, pv, {nx + 1, nyc + 1}, dists);
    D2 ro(ctx, pv, {nx + 1, nyc + 1}, dists, {0, 1});
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

  D2 v(ctx, pv, {nx + 1, nyc + 1}, dists, {0, 1});
  Op2 coarse = op;
  coarse.hy = 2.0 * op.hy;
  mg2_cycle(coarse, v, g, opts);

  // intrp2: linear interpolation in y (Listing 10's 2-D analogue).  The
  // remap delivers vtmp's even-line ghosts in its own messages — one
  // redistribution per level switch instead of a remap round plus a halo
  // round.
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

}  // namespace kali
