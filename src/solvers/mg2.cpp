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

int agglomeration_width(int n, int nprocs) {
  for (int c = nprocs - 1; c > 1; --c) {
    bool fits = true;
    for (int m = n; m >= 2 && fits; m /= 2) {
      fits = coarsenable(m + 1, c);
    }
    if (fits) {
      return c;
    }
  }
  return 1;
}
}  // namespace detail

namespace {

using D3 = DistArray3<double>;

/// A stack's two layouts over a 1-D view: rows split, (*, block, *), or
/// whole planes per member, (*, *, block), where the agglomerated levels
/// run.
const D3::Dists kRows{DimDist::star(), DimDist::block_dist(), DimDist::star()};
const D3::Dists kPlanes{DimDist::star(), DimDist::star(),
                        DimDist::block_dist()};

/// Whether the stack's rows are split over the view: (*, block, *).
bool split_rows(const D3& u) { return u.dist_kind(1) == DistKind::kBlock; }

/// u's own layout, kRows or kPlanes.
const D3::Dists& layout(const D3& u) { return split_rows(u) ? kRows : kPlanes; }

/// A fresh stack on u's view in layout `dists` with ny + 1 rows; `ghosts`
/// adds a y halo where the rows are split.
D3 stack_like(const D3& u, const D3::Dists& dists, int ny, bool ghosts) {
  const bool rows = dists[1].kind == DistKind::kBlock;
  return D3(u.context(), u.view(), {u.extent(0), ny + 1, u.extent(2)}, dists,
            {0, ghosts && rows ? 1 : 0, 0});
}

/// r = f - A u on every plane's interior points (r's boundary stays zero).
/// Does u's copy-in itself, hidden behind the interior points.
void resid2(const Op2& op, const D3& u, const D3& f, D3& r) {
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  auto uin = u.clone();
  auto body = [&](int i, int j, int b) {
    const double au =
        cx * (uin.at_halo({i - 1, j, b}) + uin.at_halo({i + 1, j, b})) +
        cy * (uin.at_halo({i, j - 1, b}) + uin.at_halo({i, j + 1, b})) +
        dg * uin.at_halo({i, j, b});
    r(i, j, b) = f(i, j, b) - au;
  };
  doall_overlap(uin.exchange_halo_begin(), uin,
                {Range{1, nx - 1}, Range{1, ny - 1}, Range{0, f.extent(2) - 1}},
                body, 10.0);
}

/// The coarse-grid correction: restrict the fine residual r onto layout
/// `coarse` of u's view, run one cycle on the y-semicoarsened grid there,
/// interpolate the correction back and add it to u.  The level switches
/// plan across the two layouts, so agglomerating needs no redistribution
/// of its own.
void correct2(const Op2& op, D3& u, const D3& r, const D3::Dists& coarse,
              const Mg2Options& opts) {
  Context& ctx = u.context();
  const int nx = u.extent(0) - 1, ny = u.extent(1) - 1, nyc = ny / 2;
  const Range planes{0, u.extent(2) - 1};

  // rest2: full weighting in y at even fine lines, injected to coarse.
  // Split the fine residual by line parity onto the coarse layout first,
  // then weight on the coarse side: re(K) = r(2K) and ro(K) = r(2K+1).  The
  // weighting stencil needs ro at K-1 and K, so ro travels through
  // copy_strided_dim_halo, which delivers those ghosts inside the remap
  // messages — no fine-grid halo exchange of r and no full-size temporary.
  // g(i,K) = 0.25 r(2K-1) + 0.5 r(2K) + 0.25 r(2K+1).
  D3 g = stack_like(u, coarse, nyc, false);
  {
    D3 re = stack_like(u, coarse, nyc, false);
    D3 ro = stack_like(u, coarse, nyc, true);
    copy_strided_dim(ctx, r, re, 1, /*s_stride=*/2, /*s_off=*/0,
                     /*d_stride=*/1, /*d_off=*/0, nyc + 1);
    copy_strided_dim_halo(ctx, r, ro, 1, /*s_stride=*/2, /*s_off=*/1,
                          /*d_stride=*/1, /*d_off=*/0, nyc);
    doall3(
        g, Range{1, nx - 1}, Range{1, nyc - 1}, planes,
        [&](int i, int K, int b) {
          g(i, K, b) = 0.25 * ro.at_halo({i, K - 1, b}) + 0.5 * re(i, K, b) +
                       0.25 * ro.at_halo({i, K, b});
        },
        4.0);
  }

  D3 v = stack_like(u, coarse, nyc, true);
  Op2 cop = op;
  cop.hy = 2.0 * op.hy;
  mg2_cycle(cop, v, g, opts);

  // intrp2: linear interpolation in y (Listing 10's 2-D analogue).  The
  // remap delivers vtmp's even-line ghosts in its own messages — one
  // redistribution per level switch instead of a remap round plus a halo
  // round.
  D3 vtmp = stack_like(u, layout(u), ny, true);
  copy_strided_dim_halo(ctx, v, vtmp, 1, /*s_stride=*/1, /*s_off=*/0,
                        /*d_stride=*/2, /*d_off=*/0, nyc + 1);
  doall3(
      u, Range{1, nx - 1}, Range{2, ny - 2, 2}, planes,
      [&](int i, int j, int b) { u(i, j, b) += vtmp(i, j, b); }, 1.0);
  doall3(
      u, Range{1, nx - 1}, Range{1, ny - 1, 2}, planes,
      [&](int i, int j, int b) {
        u(i, j, b) +=
            0.5 * (vtmp.at_halo({i, j - 1, b}) + vtmp.at_halo({i, j + 1, b}));
      },
      3.0);
}

}  // namespace

void mg2_zebra_sweep(const Op2& op, D3& u, const D3& f, int parity) {
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
  auto solve_line = [&](int j, int b) {
    // Line system along x:  cx u(i-1,j) + dg u(i,j) + cx u(i+1,j) = rhs.
    for (int i = 1; i <= nx - 1; ++i) {
      rhs[static_cast<std::size_t>(i - 1)] =
          f(i, j, b) - cy * (u.at_halo({i, j - 1, b}) + u.at_halo({i, j + 1, b}));
    }
    thomas_solve_const(cx, dg, cx, rhs, sol);
    for (int i = 1; i <= nx - 1; ++i) {
      u(i, j, b) = sol[static_cast<std::size_t>(i - 1)];
    }
  };
  // Lines of the other colour feed the right-hand side; this colour's
  // lines never read each other, so the solve order is free, and the lines
  // away from the slab faces solve while the halo is in flight.  One
  // iteration per line of every plane: dim 0 is the line itself.
  doall_overlap(u.exchange_halo_begin(), u,
                {Range{0, 0}, lines, Range{0, u.extent(2) - 1}},
                [&](int, int j, int b) { solve_line(j, b); },
                (kThomasFlopsPerRow + 4.0) * (nx - 1));
}

double mg2_residual_norm(const Op2& op, const D3& u, const D3& f) {
  if (!u.participating()) {
    return 0.0;
  }
  auto uin = u.copy_in();
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  double local = 0.0;
  doall3(
      u, Range{1, nx - 1}, Range{1, ny - 1}, Range{0, f.extent(2) - 1},
      [&](int i, int j, int b) {
        const double au =
            cx * (uin.at_halo({i - 1, j, b}) + uin.at_halo({i + 1, j, b})) +
            cy * (uin.at_halo({i, j - 1, b}) + uin.at_halo({i, j + 1, b})) +
            dg * uin.at_halo({i, j, b});
        const double res = f(i, j, b) - au;
        local += res * res;
      },
      1.0);
  return std::sqrt(allreduce_sum(u.context(), u.view(), local));
}

void mg2_cycle(const Op2& op, D3& u, const D3& f, const Mg2Options& opts) {
  const int ny = u.extent(1) - 1;  // the coarsened extent
  KALI_CHECK(ny >= 1 && (ny & (ny - 1)) == 0,
             "mg2_cycle: ny must be a power of two");
  if (!u.participating()) {
    return;
  }

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

  D3 r = stack_like(u, layout(u), ny, false);
  resid2(op, u, f, r);
  // Where block misalignment would leave a processor without coarse rows,
  // the coarse levels agglomerate by planes: on (*, *, block) each member
  // holds whole planes and runs the remaining levels on them without
  // messages, and one plane lands on the first member alone (standard
  // practice on distributed memory).  Spreading the planes keeps every
  // member busy when mg3 stacks a column's planes: on the benchmark's mg3
  // (64^3 on 4x4, kPorts) the V-cycle reads 1.306 s spread and 1.609 s
  // with every plane on the first member.  Only the coarse layout changes,
  // so the values do not depend on the view.
  const bool rows =
      split_rows(u) && detail::coarsenable(ny / 2 + 1, u.view().extent(0));
  correct2(op, u, r, rows ? kRows : kPlanes, opts);
}

}  // namespace kali
