#include "solvers/sparse.hpp"

#include <cmath>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "support/check.hpp"

namespace kali {

DistCsrMatrix::DistCsrMatrix(const DistArray1<double>& tmpl,
                             const SparseRowFn& rows)
    : n_(tmpl.extent(0)), view_(tmpl.view()) {
  KALI_CHECK(tmpl.dist_kind(0) == DistKind::kBlock,
             "sparse: rows must be block distributed");
  if (!tmpl.participating()) {
    return;
  }
  Context& ctx = tmpl.context();
  const int lo = tmpl.own_lower(0);
  const int m = tmpl.local_count(0);
  row_ptr_.reserve(static_cast<std::size_t>(m) + 1);
  diag_.assign(static_cast<std::size_t>(m), 0.0);
  row_ptr_.push_back(0);
  for (int l = 0; l < m; ++l) {
    const int i = lo + l;
    for (const auto& [col, val] : rows(i)) {
      KALI_CHECK(col >= 0 && col < n_, "sparse: column out of range");
      cols_.push_back(col);
      vals_.push_back(val);
      if (col == i) {
        diag_[static_cast<std::size_t>(l)] = val;
      }
    }
    row_ptr_.push_back(static_cast<int>(cols_.size()));
  }
  ctx.compute(static_cast<double>(cols_.size()));  // assembly pass
  // Inspector: the gather schedule for exactly this column pattern.
  plan_ = GatherPlan::build(tmpl, cols_);
}

void DistCsrMatrix::multiply(const DistArray1<double>& x,
                             DistArray1<double>& y) const {
  KALI_CHECK(x.extent(0) == n_ && y.extent(0) == n_, "sparse: extent mismatch");
  if (!x.participating()) {
    return;
  }
  Context& ctx = x.context();
  // Executor: fetch the operand values in column order.
  const std::vector<double> xv = plan_.execute(x);
  auto ys = y.local_strided();
  const int m = static_cast<int>(row_ptr_.size()) - 1;
  KALI_CHECK(ys.n == m, "sparse: result layout mismatch");
  for (int l = 0; l < m; ++l) {
    double acc = 0.0;
    for (int k = row_ptr_[static_cast<std::size_t>(l)];
         k < row_ptr_[static_cast<std::size_t>(l) + 1]; ++k) {
      acc += vals_[static_cast<std::size_t>(k)] * xv[static_cast<std::size_t>(k)];
    }
    ys[l] = acc;
  }
  ctx.compute(2.0 * static_cast<double>(vals_.size()));
}

namespace {

double dot(Context& ctx, const ProcView& pv, const DistArray1<double>& a,
           const DistArray1<double>& b) {
  auto as = a.local_strided();
  auto bs = b.local_strided();
  double local = 0.0;
  for (int l = 0; l < as.n; ++l) {
    local += as[l] * bs[l];
  }
  ctx.compute(2.0 * as.n);
  return allreduce_sum(ctx, pv, local);
}

}  // namespace

double sparse_jacobi(const DistCsrMatrix& A, const DistArray1<double>& b,
                     DistArray1<double>& x, int iters, double omega) {
  if (!x.participating()) {
    return 0.0;
  }
  Context& ctx = x.context();
  const ProcView& pv = x.view();
  DistArray1<double> ax = x.clone();
  const auto& diag = A.diagonal();
  for (int it = 0; it < iters; ++it) {
    A.multiply(x, ax);
    auto xs = x.local_strided();
    auto axs = ax.local_strided();
    auto bs = b.local_strided();
    for (int l = 0; l < xs.n; ++l) {
      KALI_CHECK(diag[static_cast<std::size_t>(l)] != 0.0,
                 "sparse_jacobi: zero diagonal");
      xs[l] += omega * (bs[l] - axs[l]) / diag[static_cast<std::size_t>(l)];
    }
    ctx.compute(3.0 * xs.n);
  }
  A.multiply(x, ax);
  auto axs = ax.local_strided();
  auto bs = b.local_strided();
  double local = 0.0;
  for (int l = 0; l < axs.n; ++l) {
    const double r = bs[l] - axs[l];
    local += r * r;
  }
  ctx.compute(2.0 * axs.n);
  return std::sqrt(allreduce_sum(ctx, pv, local));
}

int sparse_cg(const DistCsrMatrix& A, const DistArray1<double>& b,
              DistArray1<double>& x, double rtol, int max_iters) {
  if (!x.participating()) {
    return 0;
  }
  Context& ctx = x.context();
  const ProcView& pv = x.view();

  DistArray1<double> r = b.clone();
  DistArray1<double> p = b.clone();
  DistArray1<double> ap = b.clone();
  // r = b - A x.
  A.multiply(x, ap);
  {
    auto rs = r.local_strided();
    auto aps = ap.local_strided();
    auto bs = b.local_strided();
    for (int l = 0; l < rs.n; ++l) {
      rs[l] = bs[l] - aps[l];
    }
    ctx.compute(static_cast<double>(rs.n));
  }
  {
    auto ps = p.local_strided();
    auto rs = r.local_strided();
    for (int l = 0; l < ps.n; ++l) {
      ps[l] = rs[l];
    }
  }
  const double bnorm = std::sqrt(dot(ctx, pv, b, b));
  double rr = dot(ctx, pv, r, r);
  const double stop = rtol * (bnorm > 0.0 ? bnorm : 1.0);
  int it = 0;
  while (it < max_iters && std::sqrt(rr) > stop) {
    A.multiply(p, ap);
    const double pap = dot(ctx, pv, p, ap);
    KALI_CHECK(pap > 0.0, "sparse_cg: matrix not positive definite");
    const double alpha = rr / pap;
    auto xs = x.local_strided();
    auto ps = p.local_strided();
    auto rs = r.local_strided();
    auto aps = ap.local_strided();
    for (int l = 0; l < xs.n; ++l) {
      xs[l] += alpha * ps[l];
      rs[l] -= alpha * aps[l];
    }
    ctx.compute(4.0 * xs.n);
    const double rr_new = dot(ctx, pv, r, r);
    const double beta = rr_new / rr;
    for (int l = 0; l < ps.n; ++l) {
      ps[l] = rs[l] + beta * ps[l];
    }
    ctx.compute(2.0 * ps.n);
    rr = rr_new;
    ++it;
  }
  return it;
}

}  // namespace kali
