#include "solvers/adi_var.hpp"

#include <cmath>
#include <numbers>

#include "kernels/mtri.hpp"
#include "kernels/tri.hpp"
#include "machine/context.hpp"
#include "runtime/doall.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

/// L u at interior point (i, j) given halo'd u.
double apply_op(const AdiVarWorkspace& ws, const DistArray2<double>& uin,
                int i, int j) {
  const double cai = ws.ca(i, j);
  const double cbi = ws.cb(i, j);
  const double diag = ws.cc(i, j) - 2.0 * cai - 2.0 * cbi;
  return cai * (uin.at_halo({i - 1, j}) + uin.at_halo({i + 1, j})) +
         cbi * (uin.at_halo({i, j - 1}) + uin.at_halo({i, j + 1})) +
         diag * uin.at_halo({i, j});
}

}  // namespace

AdiVarWorkspace::AdiVarWorkspace(const AdiVarOptions& opts,
                                 const DistArray2<double>& u)
    : opts_(opts) {
  KALI_CHECK(opts.a && opts.b && opts.c, "adi_var: coefficient fns required");
  Context& ctx = u.context();
  const int nx = u.extent(0), ny = u.extent(1);
  using D2 = DistArray2<double>;
  const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
  ca = D2(ctx, u.view(), {nx, ny}, dists);
  cb = D2(ctx, u.view(), {nx, ny}, dists);
  cc = D2(ctx, u.view(), {nx, ny}, dists);
  const double hx2 = opts.hx * opts.hx, hy2 = opts.hy * opts.hy;
  ca.fill([&](std::array<int, 2> g) {
    return opts_.a((g[0] + 1) * opts_.hx, (g[1] + 1) * opts_.hy) / hx2;
  });
  cb.fill([&](std::array<int, 2> g) {
    return opts_.b((g[0] + 1) * opts_.hx, (g[1] + 1) * opts_.hy) / hy2;
  });
  cc.fill([&](std::array<int, 2> g) {
    return opts_.c((g[0] + 1) * opts_.hx, (g[1] + 1) * opts_.hy);
  });
  ctx.compute(6.0 * ca.local_count(0) * ca.local_count(1));
}

double adi_var_residual_norm(const AdiVarWorkspace& ws,
                             const DistArray2<double>& u,
                             const DistArray2<double>& f) {
  if (!u.participating()) {
    return 0.0;
  }
  auto uin = u.copy_in();
  const int nx = f.extent(0), ny = f.extent(1);
  const double s =
      doall2_sum(u, Range{0, nx - 1}, Range{0, ny - 1}, [&](int i, int j) {
        const double res = f(i, j) - apply_op(ws, uin, i, j);
        return res * res;
      });
  return std::sqrt(s);
}

void adi_var_iterate(const AdiVarWorkspace& ws, DistArray2<double>& u,
                     const DistArray2<double>& f) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const double tau = ws.options().tau;
  const int nx = u.extent(0), ny = u.extent(1);
  KALI_CHECK(u.halo(0) >= 1 && u.halo(1) >= 1, "adi_var: u needs halo 1");

  using D2 = DistArray2<double>;
  const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
  D2 r(ctx, u.view(), {nx, ny}, dists);
  D2 v(ctx, u.view(), {nx, ny}, dists);
  D2 w(ctx, u.view(), {nx, ny}, dists);

  // r = tau (L u - f).
  auto uin = u.copy_in();
  doall2(
      r, Range{0, nx - 1}, Range{0, ny - 1},
      [&](int i, int j) { r(i, j) = tau * (apply_op(ws, uin, i, j) - f(i, j)); },
      12.0);

  // (I - tau L2) coefficients along y: L2 = b dyy + c/2 (per-row values).
  D2 blo(ctx, u.view(), {nx, ny}, dists);
  D2 bdi(ctx, u.view(), {nx, ny}, dists);
  doall2(
      blo, Range{0, nx - 1}, Range{0, ny - 1},
      [&](int i, int j) {
        blo(i, j) = -tau * ws.cb(i, j);
        bdi(i, j) = 1.0 + 2.0 * tau * ws.cb(i, j) - 0.5 * tau * ws.cc(i, j);
      },
      5.0);
  // (I - tau L1) along x.
  D2 alo(ctx, u.view(), {nx, ny}, dists);
  D2 adi(ctx, u.view(), {nx, ny}, dists);
  doall2(
      alo, Range{0, nx - 1}, Range{0, ny - 1},
      [&](int i, int j) {
        alo(i, j) = -tau * ws.ca(i, j);
        adi(i, j) = 1.0 + 2.0 * tau * ws.ca(i, j) - 0.5 * tau * ws.cc(i, j);
      },
      5.0);

  if (!ws.options().pipelined) {
    // Listing 7 structure with the general solver: tri per line.
    doall_slice_owner(r, 0, Range{0, nx - 1}, [&](int i) {
      auto b1 = blo.fix(0, i);
      auto a1 = bdi.fix(0, i);
      auto r1 = r.fix(0, i);
      auto v1 = v.fix(0, i);
      tri(b1, a1, b1, r1, v1);
    });
    doall_slice_owner(v, 1, Range{0, ny - 1}, [&](int j) {
      auto b1 = alo.fix(1, j);
      auto a1 = adi.fix(1, j);
      auto v1 = v.fix(1, j);
      auto w1 = w.fix(1, j);
      tri(b1, a1, b1, v1, w1);
    });
  } else {
    // Listing 8 structure: every processor row/column pipelines its slab.
    {
      const int lo = r.own_lower(0);
      const int cnt = r.local_count(0);
      auto bs = blo.localize(0, lo, cnt);
      auto as = bdi.localize(0, lo, cnt);
      auto rs = r.localize(0, lo, cnt);
      auto vs = v.localize(0, lo, cnt);
      mtri(bs, as, bs, rs, vs, /*system_dim=*/0);
    }
    {
      const int lo = v.own_lower(1);
      const int cnt = v.local_count(1);
      auto bs = alo.localize(1, lo, cnt);
      auto as = adi.localize(1, lo, cnt);
      auto vs = v.localize(1, lo, cnt);
      auto wsl = w.localize(1, lo, cnt);
      mtri(bs, as, bs, vs, wsl, /*system_dim=*/1);
    }
  }

  doall2(
      u, Range{0, nx - 1}, Range{0, ny - 1},
      [&](int i, int j) { u(i, j) += w(i, j); }, 1.0);
}

double adi_var_default_tau(const AdiVarWorkspace& ws) {
  // Extremes of the coefficient fields over the local block, reduced over
  // the view: tau* = 2 / sqrt(lmin * lmax).
  const DistArray2<double>& ca = ws.ca;
  double cmax = 0.0;
  ca.for_each_owned([&](std::array<int, 2> g) {
    cmax = std::max({cmax, ca.at(g), ws.cb.at(g)});
  });
  cmax = allreduce_max(ca.context(), ca.view(), cmax);
  const double pi2 = std::numbers::pi * std::numbers::pi;
  const double lmin = pi2;  // smooth-mode estimate for unit-order a, b
  const double lmax = 4.0 * cmax;
  return 2.0 / std::sqrt(lmin * lmax);
}

}  // namespace kali
