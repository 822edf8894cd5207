// ADI's transpose-mode iteration with an unpipelined first switch, rebuilt
// from public calls only: the oracle adi_iterate's transpose branch is
// proven against.
//
// The solver computes the residual line by line inside
// redistribute_lines, so each slice of rows is on the wire while the next
// slice computes.  This iteration does the same arithmetic in the order the
// solver used before: the whole residual first (on a copy of u whose halo
// exchange hides behind the interior points), then one blocking
// redistribute to (block, *), then the same two pipelined Thomas sweeps.
// So the iterates must match the solver's bit for bit, and only the
// modeled clocks may differ.
#pragma once

#include <vector>

#include "kernels/thomas.hpp"
#include "runtime/doall.hpp"
#include "runtime/redistribute.hpp"
#include "solvers/adi.hpp"

namespace kali::oracles {

/// One transpose-mode ADI iteration (opts.transpose is implied); u and f
/// are (block, block) over a contiguous 2-D view, u with halo >= 1.
inline void adi_iterate_transpose_blocking(const AdiOptions& opts,
                                           DistArray2<double>& u,
                                           const DistArray2<double>& f) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const Op2& op = opts.op;
  const double tau = opts.tau;
  const int nx = u.extent(0), ny = u.extent(1);
  using D2 = DistArray2<double>;
  const D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
  D2 r(ctx, u.view(), {nx, ny}, dists);
  D2 w(ctx, u.view(), {nx, ny}, dists);

  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  auto uin = u.clone();
  doall_overlap(
      uin.exchange_halo_begin(), uin, {Range{0, nx - 1}, Range{0, ny - 1}},
      [&](int i, int j) {
        const double lu =
            cx * (uin.at_halo({i - 1, j}) + uin.at_halo({i + 1, j})) +
            cy * (uin.at_halo({i, j - 1}) + uin.at_halo({i, j + 1})) +
            dg * uin.at_halo({i, j});
        r(i, j) = tau * (lu - f(i, j));
      },
      10.0);

  const double oy = -tau * op.cy();
  const double dy = 1.0 + 2.0 * tau * op.cy() - tau * op.sigma / 2.0;
  const double ox = -tau * op.cx();
  const double dx = 1.0 + 2.0 * tau * op.cx() - tau * op.sigma / 2.0;
  const ProcView line = ProcView::grid1(u.view().count(), u.view().rank_at(0));
  D2 rrows(ctx, line, {nx, ny}, {DimDist::block_dist(), DimDist::star()});
  D2 vcols(ctx, line, {nx, ny}, {DimDist::star(), DimDist::block_dist()});
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
  redistribute(ctx, r, rrows);
  sweep(rrows, vcols, 1, oy, dy);
  sweep(vcols, w, 0, ox, dx);

  doall2(
      u, Range{0, nx - 1}, Range{0, ny - 1},
      [&](int i, int j) { u(i, j) += w(i, j); }, 1.0);
}

}  // namespace kali::oracles
