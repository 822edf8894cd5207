#include "solvers/adi.hpp"

#include <cmath>
#include <vector>

#include "kernels/mtri.hpp"
#include "kernels/thomas.hpp"
#include "kernels/tri.hpp"
#include "runtime/doall.hpp"
#include "runtime/redistribute.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

/// Flops charged per point of the residual.
constexpr double kResidualFlops = 10.0;

/// The residual at one point, r(i, j) = tau * (L u - f)(i, j), reading
/// `uin`, whose ghosts must hold u's neighbours: the pseudo-time defect of
/// u_t = L u - f, whose steady state is L u = f.  (L is negative definite,
/// so the increment carries this sign; see the header comment.)
auto residual_body(const Op2& op, double tau, const DistArray2<double>& uin,
                   const DistArray2<double>& f, DistArray2<double>& r) {
  return [&uin, &f, &r, tau, cx = op.cx(), cy = op.cy(),
          dg = op.diag()](int i, int j) {
    const double lu = cx * (uin.at_halo({i - 1, j}) + uin.at_halo({i + 1, j})) +
                      cy * (uin.at_halo({i, j - 1}) + uin.at_halo({i, j + 1})) +
                      dg * uin.at_halo({i, j});
    r(i, j) = tau * (lu - f(i, j));
  };
}

/// The whole residual r = tau * (L u - f).  Does u's copy-in itself,
/// hidden behind the interior points.
void residual_scaled(const Op2& op, double tau, const DistArray2<double>& u,
                     const DistArray2<double>& f, DistArray2<double>& r) {
  const int nx = f.extent(0), ny = f.extent(1);
  auto uin = u.clone();
  doall_overlap(uin.exchange_halo_begin(), uin,
                {Range{0, nx - 1}, Range{0, ny - 1}},
                residual_body(op, tau, uin, f, r), kResidualFlops);
}

/// The view's members as a 1-D line view (transpose mode redistributes
/// between 2-D (block, block) and 1-D (block, *) / (*, block) layouts over
/// the same processors, which requires the ranks to be contiguous).  A
/// view's ranks ascend, so they are contiguous exactly when the last is
/// count - 1 past the first.
ProcView row_major_line(const ProcView& pv) {
  const int n = pv.count();
  KALI_CHECK(pv.rank_at(n - 1) - pv.rank_at(0) == n - 1,
             "adi transpose: view must be a contiguous rank range");
  return ProcView::grid1(n, pv.rank_at(0));
}

}  // namespace

double adi_residual_norm(const Op2& op, const DistArray2<double>& u,
                         const DistArray2<double>& f) {
  if (!u.participating()) {
    return 0.0;
  }
  auto uin = u.copy_in();
  const int nx = f.extent(0), ny = f.extent(1);
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  const double s = doall2_sum(u, Range{0, nx - 1}, Range{0, ny - 1}, [&](int i, int j) {
    const double lu = cx * (uin.at_halo({i - 1, j}) + uin.at_halo({i + 1, j})) +
                      cy * (uin.at_halo({i, j - 1}) + uin.at_halo({i, j + 1})) +
                      dg * uin.at_halo({i, j});
    const double res = f(i, j) - lu;
    return res * res;
  });
  return std::sqrt(s);
}

void adi_iterate(const AdiOptions& opts, DistArray2<double>& u,
                 const DistArray2<double>& f) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const Op2& op = opts.op;
  const double tau = opts.tau;
  const int nx = u.extent(0), ny = u.extent(1);
  KALI_CHECK(u.halo(0) >= 1 && u.halo(1) >= 1, "adi: u needs halo 1");

  // dynamic real r(...), v(...), w(...) dist (block, block)
  using D2 = DistArray2<double>;
  const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
  D2 r(ctx, u.view(), {nx, ny}, dists);
  D2 w(ctx, u.view(), {nx, ny}, dists);

  if (!opts.transpose) {
    residual_scaled(op, tau, u, f, r);
  }

  // Tridiagonal coefficients of (I - tau L2) and (I - tau L1).
  const double oy = -tau * op.cy();
  const double dy = 1.0 + 2.0 * tau * op.cy() - tau * op.sigma / 2.0;
  const double ox = -tau * op.cx();
  const double dx = 1.0 + 2.0 * tau * op.cx() - tau * op.sigma / 2.0;

  if (opts.transpose) {
    // Direction switch by redistribution: remap r to (block, *) so every
    // y-line is a local Thomas sweep, transpose to (*, block) for the
    // x-lines, then land back in (block, block).  The residual and each
    // sweep are pipelined into the redistribution after them
    // (redistribute_lines): a slice of finished lines is on the wire while
    // the next slice computes.  All three redistributions are
    // box-intersection slab exchanges, each sender issuing in the order of
    // its exchange's pair graph (pair_graph_sort, runtime/redistribute.hpp)
    // with each rank's self-overlap copied locally, never sent.
    const ProcView line = row_major_line(u.view());
    D2 rrows(ctx, line, {nx, ny}, {DimDist::block_dist(), DimDist::star()});
    D2 vcols(ctx, line, {nx, ny}, {DimDist::star(), DimDist::block_dist()});

    // Thomas solves along `dim` of a's lines, sent on into b.  Each line is
    // fully read into fline before its solution is written, so both sweeps
    // land in place — two transposed temporaries suffice.
    auto sweep = [&](D2& a, D2& b, int dim, double off, double diag) {
      const int n = a.extent(dim);
      std::vector<double> fline(static_cast<std::size_t>(n)), xline(fline);
      redistribute_lines(ctx, a, b, 1 - dim, [&](int k) {
        const Strided<double> s = a.fix(1 - dim, k).local_strided();
        for (int q = 0; q < n; ++q) {
          fline[static_cast<std::size_t>(q)] = s[q];
        }
        thomas_solve_const(off, diag, off, fline, xline);
        ctx.compute(kThomasFlopsPerRow * n);
        for (int q = 0; q < n; ++q) {
          s[q] = xline[static_cast<std::size_t>(q)];
        }
      });
    };
    // The residual reads u's own ghosts, exchanged once up front: no copy
    // of u is held while the rows go out.
    u.exchange_halo();
    const auto resid = residual_body(op, tau, u, f, r);
    const int jlo = r.own_lower(1), jhi = r.own_upper(1);
    redistribute_lines(ctx, r, rrows, 0, [&](int i) {
      for (int j = jlo; j <= jhi; ++j) {
        resid(i, j);
      }
      ctx.compute(kResidualFlops * (jhi - jlo + 1));
    });
    sweep(rrows, vcols, 1, oy, dy);
    sweep(vcols, w, 0, ox, dx);
  } else if (!opts.pipelined) {
    // Listing 7: perform tridiagonal solves in the y direction ...
    D2 v(ctx, u.view(), {nx, ny}, dists);
    doall_slice_owner(r, 0, Range{0, nx - 1}, [&](int i) {
      auto ri = r.fix(0, i);
      auto vi = v.fix(0, i);
      tric(oy, dy, oy, ri, vi);
    });
    // ... and in the x direction.
    doall_slice_owner(v, 1, Range{0, ny - 1}, [&](int j) {
      auto vj = v.fix(1, j);
      auto wj = w.fix(1, j);
      tric(ox, dx, ox, vj, wj);
    });
  } else {
    // Listing 8: every processor row pipelines its slab of y solves ...
    D2 v(ctx, u.view(), {nx, ny}, dists);
    {
      const int lo = r.own_lower(0);
      const int cnt = r.local_count(0);
      auto rs = r.localize(0, lo, cnt);
      auto vs = v.localize(0, lo, cnt);
      mtri_const(oy, dy, oy, rs, vs, /*system_dim=*/0);
    }
    // ... and every processor column its slab of x solves.
    {
      const int lo = v.own_lower(1);
      const int cnt = v.local_count(1);
      auto vs = v.localize(1, lo, cnt);
      auto ws = w.localize(1, lo, cnt);
      mtri_const(ox, dx, ox, vs, ws, /*system_dim=*/1);
    }
  }

  doall2(
      u, Range{0, nx - 1}, Range{0, ny - 1},
      [&](int i, int j) { u(i, j) += w(i, j); }, 1.0);
}

double adi_solve(const AdiOptions& opts, DistArray2<double>& u,
                 const DistArray2<double>& f, int iters) {
  for (int it = 0; it < iters; ++it) {
    adi_iterate(opts, u, f);
  }
  return adi_residual_norm(opts.op, u, f);
}

double adi_default_tau(const Op2& op, int n) {
  // Balance the damping of the smoothest mode (1 - tau * lmin) against the
  // factored denominator's effect on the stiffest (1 - 4 / (tau * lmax)):
  // tau* = 2 / sqrt(lmin * lmax).
  const double pi2 = std::numbers::pi * std::numbers::pi;
  const double ax = std::min(op.axx, op.ayy);
  const double lmin = pi2 * ax + std::abs(op.sigma) * 0.5;
  const double lmax = 4.0 * std::max(op.cx(), op.cy());
  (void)n;
  return 2.0 / std::sqrt(lmin * lmax);
}

}  // namespace kali
