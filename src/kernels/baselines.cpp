#include "kernels/baselines.hpp"

#include <cmath>

#include "kernels/thomas.hpp"
#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "runtime/inspector.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

// Kernel-library band of the reserved-tag registry (machine/message.hpp),
// distinct from tri's per-system tags (kTagTriBase + 2 * nsys): collisions
// would need ~2^21 concurrently pipelined systems.
constexpr int kTagCarry = kTagBaselineBase;
constexpr int kTagBack = kTagBaselineBase + 1;
constexpr int kTagScatter = kTagBaselineBase + 2;

void check_conforming(const DistArray1<double>& a, const DistArray1<double>& x) {
  KALI_CHECK(a.extent(0) == x.extent(0), "tridiag baseline: extent mismatch");
  KALI_CHECK(a.view() == x.view(), "tridiag baseline: view mismatch");
  KALI_CHECK(a.dist_kind(0) == DistKind::kBlock,
             "tridiag baseline: block distribution required");
}

}  // namespace

void gather_thomas(const DistArray1<double>& b, const DistArray1<double>& a,
                   const DistArray1<double>& c, const DistArray1<double>& f,
                   DistArray1<double>& x) {
  check_conforming(a, x);
  if (!x.participating()) {
    return;
  }
  Context& ctx = x.context();
  Group g = x.group();
  const int n = x.extent(0);

  auto bb = gather(ctx, g, 0, std::span<const double>(to_vector(b.local_strided())));
  auto aa = gather(ctx, g, 0, std::span<const double>(to_vector(a.local_strided())));
  auto cc = gather(ctx, g, 0, std::span<const double>(to_vector(c.local_strided())));
  auto ff = gather(ctx, g, 0, std::span<const double>(to_vector(f.local_strided())));

  std::vector<double> sol;
  if (g.index() == 0) {
    KALI_CHECK(static_cast<int>(aa.size()) == n, "gather_thomas: bad gather");
    sol.resize(static_cast<std::size_t>(n));
    thomas_solve(bb, aa, cc, ff, sol);
    ctx.compute(kThomasFlopsPerRow * n);
    // Scatter each member's block back (group order == block order).
    std::size_t off = static_cast<std::size_t>(x.local_count(0));
    for (int i = 1; i < g.size(); ++i) {
      const auto cnt = static_cast<std::size_t>(x.map(0).count(i));
      ctx.send_span<double>(g.rank_at(i), kTagScatter,
                            std::span<const double>(sol.data() + off, cnt));
      off += cnt;
    }
    auto xs = x.local_strided();
    for (int i = 0; i < xs.n; ++i) {
      xs[i] = sol[static_cast<std::size_t>(i)];
    }
  } else {
    auto mine = ctx.recv_vec<double>(g.rank_at(0), kTagScatter);
    auto xs = x.local_strided();
    KALI_CHECK(static_cast<int>(mine.size()) == xs.n, "gather_thomas: scatter");
    for (int i = 0; i < xs.n; ++i) {
      xs[i] = mine[static_cast<std::size_t>(i)];
    }
  }
}

void pipelined_thomas(const DistArray1<double>& b, const DistArray1<double>& a,
                      const DistArray1<double>& c, const DistArray1<double>& f,
                      DistArray1<double>& x) {
  check_conforming(a, x);
  if (!x.participating()) {
    return;
  }
  Context& ctx = x.context();
  const ProcView& pv = x.view();
  const int me = pv.linear_index_of(ctx.rank());
  const int p = pv.count();
  const int m = x.local_count(0);

  auto bb = to_vector(b.local_strided());
  auto aa = to_vector(a.local_strided());
  auto cc = to_vector(c.local_strided());
  auto ff = to_vector(f.local_strided());

  // Forward: carry (cp, fp) of the row just above my block.
  double cp_in = 0.0, fp_in = 0.0;
  if (me > 0) {
    auto carry = ctx.recv<std::array<double, 2>>(pv.rank_of1(me - 1), kTagCarry);
    cp_in = carry[0];
    fp_in = carry[1];
  }
  std::vector<double> cp(static_cast<std::size_t>(m)), fp(cp.size());
  for (int i = 0; i < m; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const double bi = (me == 0 && i == 0) ? 0.0 : bb[u];
    const double prev_cp = i == 0 ? cp_in : cp[u - 1];
    const double prev_fp = i == 0 ? fp_in : fp[u - 1];
    const double denom = aa[u] - bi * prev_cp;
    KALI_CHECK(denom != 0.0, "pipelined_thomas: zero pivot");
    cp[u] = cc[u] / denom;
    fp[u] = (ff[u] - bi * prev_fp) / denom;
  }
  ctx.compute(kThomasFlopsPerRow * 0.6 * m);
  if (me < p - 1) {
    ctx.send(pv.rank_of1(me + 1), kTagCarry,
             std::array<double, 2>{cp[static_cast<std::size_t>(m - 1)],
                                   fp[static_cast<std::size_t>(m - 1)]});
  }

  // Backward: x value of the row just below my block.
  double x_below = 0.0;
  bool have_below = false;
  if (me < p - 1) {
    x_below = ctx.recv<double>(pv.rank_of1(me + 1), kTagBack);
    have_below = true;
  }
  auto xs = x.local_strided();
  for (int i = m - 1; i >= 0; --i) {
    const auto u = static_cast<std::size_t>(i);
    if (i == m - 1 && !have_below) {
      xs[i] = fp[u];
    } else {
      const double next = i == m - 1 ? x_below : xs[i + 1];
      xs[i] = fp[u] - cp[u] * next;
    }
  }
  ctx.compute(kThomasFlopsPerRow * 0.4 * m);
  if (me > 0) {
    ctx.send(pv.rank_of1(me - 1), kTagBack, xs[0]);
  }
}

void cyclic_reduction(const DistArray1<double>& b, const DistArray1<double>& a,
                      const DistArray1<double>& c, const DistArray1<double>& f,
                      DistArray1<double>& x) {
  check_conforming(a, x);
  if (!x.participating()) {
    return;
  }
  Context& ctx = x.context();
  const int n = x.extent(0);

  // Working copies as distributed arrays (PCR rewrites every row each step).
  DistArray1<double> wb = b.clone();
  DistArray1<double> wa = a.clone();
  DistArray1<double> wc = c.clone();
  DistArray1<double> wf = f.clone();
  // Boundary couplings outside the domain are identically zero.
  if (wb.owns({0})) {
    wb(0) = 0.0;
  }
  if (wc.owns({n - 1})) {
    wc(n - 1) = 0.0;
  }

  const int lo = x.own_lower(0);
  const int m = x.local_count(0);

  for (int d = 1; d < n; d *= 2) {
    // Inspector: rows i-d and i+d for every owned i (clamped to identity).
    std::vector<int> wants;
    wants.reserve(static_cast<std::size_t>(2 * m));
    for (int l = 0; l < m; ++l) {
      const int i = lo + l;
      wants.push_back(std::max(i - d, 0));
      wants.push_back(std::min(i + d, n - 1));
    }
    GatherPlan plan = GatherPlan::build(wb, wants);
    auto gb = plan.execute(wb);
    auto ga = plan.execute(wa);
    auto gc = plan.execute(wc);
    auto gf = plan.execute(wf);

    std::vector<double> nb(static_cast<std::size_t>(m)), na(nb.size()),
        nc(nb.size()), nf(nb.size());
    for (int l = 0; l < m; ++l) {
      const auto u = static_cast<std::size_t>(l);
      const int i = lo + l;
      const std::size_t up = 2 * u;      // row i-d slot
      const std::size_t dn = 2 * u + 1;  // row i+d slot
      const bool has_up = i - d >= 0;
      const bool has_dn = i + d <= n - 1;
      const double alpha = has_up ? -wb(i) / ga[up] : 0.0;
      const double gamma = has_dn ? -wc(i) / ga[dn] : 0.0;
      nb[u] = has_up ? alpha * gb[up] : 0.0;
      nc[u] = has_dn ? gamma * gc[dn] : 0.0;
      na[u] = wa(i) + (has_up ? alpha * gc[up] : 0.0) +
              (has_dn ? gamma * gb[dn] : 0.0);
      nf[u] = wf(i) + (has_up ? alpha * gf[up] : 0.0) +
              (has_dn ? gamma * gf[dn] : 0.0);
    }
    for (int l = 0; l < m; ++l) {
      const auto u = static_cast<std::size_t>(l);
      const int i = lo + l;
      wb(i) = nb[u];
      wa(i) = na[u];
      wc(i) = nc[u];
      wf(i) = nf[u];
    }
    ctx.compute(12.0 * m);
  }

  auto xs = x.local_strided();
  for (int l = 0; l < m; ++l) {
    xs[l] = wf(lo + l) / wa(lo + l);
  }
  ctx.compute(1.0 * m);
}

}  // namespace kali
