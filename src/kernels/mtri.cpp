#include "kernels/mtri.hpp"

#include <optional>

#include "kernels/tri_pipeline.hpp"
#include "machine/context.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

struct MtriShape {
  int system_dim;
  int solve_dim;
  int nsys;
};

MtriShape check_shape(const DistArray2<double>& F, const DistArray2<double>& X,
                      int system_dim) {
  KALI_CHECK(system_dim == 0 || system_dim == 1, "mtri: bad system_dim");
  const int solve_dim = 1 - system_dim;
  KALI_CHECK(F.dist_kind(system_dim) == DistKind::kStar,
             "mtri: system dim must be undistributed (*)");
  KALI_CHECK(F.dist_kind(solve_dim) == DistKind::kBlock,
             "mtri: solve dim must be block distributed");
  KALI_CHECK(F.view() == X.view(), "mtri: arrays on different views");
  KALI_CHECK(F.extent(0) == X.extent(0) && F.extent(1) == X.extent(1),
             "mtri: extent mismatch");
  return {system_dim, solve_dim, F.extent(system_dim)};
}

/// Shared pipelined driver.  `load(j)` returns the four local coefficient
/// vectors (b, a, c, f) for system j.
template <class Load>
void run_pipelined(DistArray2<double>& X, const MtriShape& shape, Load load) {
  if (!X.participating()) {
    return;
  }
  Context& ctx = X.context();
  const ProcView& pv = X.view();
  const int nsys = shape.nsys;

  std::vector<std::optional<detail::TriPipeline>> pipes(
      static_cast<std::size_t>(nsys));
  const int depth = detail::TriPipeline(ctx, pv, 0).positions();
  const int steps = nsys + depth - 1;

  for (int t = 0; t < steps; ++t) {
    // Systems enter in order; each runs position t - j this step.
    for (int j = std::max(0, t - depth + 1); j <= std::min(t, nsys - 1); ++j) {
      const auto uj = static_cast<std::size_t>(j);
      const int q = t - j;
      if (q == 0) {
        pipes[uj].emplace(ctx, pv, /*sys=*/j);
        auto [b, a, c, f] = load(j);
        pipes[uj]->set_local(std::move(b), std::move(a), std::move(c),
                             std::move(f));
      }
      pipes[uj]->run_position(q);
      if (q == depth - 1) {
        // Drain: write the solution and free the state.
        auto x = X.fix(shape.system_dim, j);
        auto xs = x.local_strided();
        const auto& sol = pipes[uj]->solution();
        KALI_CHECK(static_cast<int>(sol.size()) == xs.n, "mtri: solution size");
        for (int i = 0; i < xs.n; ++i) {
          xs[i] = sol[static_cast<std::size_t>(i)];
        }
        pipes[uj].reset();
      }
    }
  }
}

}  // namespace

int mtri_trace_steps(int nsys, int p) {
  KALI_CHECK(nsys >= 1, "mtri: need at least one system");
  const int depth = p == 1 ? 1 : 2 * detail::checked_log2(p) + 1;
  return nsys + depth - 1;
}

void mtri(const DistArray2<double>& B, const DistArray2<double>& A,
          const DistArray2<double>& C, const DistArray2<double>& F,
          DistArray2<double>& X, int system_dim) {
  const MtriShape shape = check_shape(F, X, system_dim);
  run_pipelined(X, shape, [&](int j) {
    return std::tuple{to_vector(B.fix(system_dim, j).local_strided()),
                      to_vector(A.fix(system_dim, j).local_strided()),
                      to_vector(C.fix(system_dim, j).local_strided()),
                      to_vector(F.fix(system_dim, j).local_strided())};
  });
}

void mtri_const(double lo, double diag, double up, const DistArray2<double>& F,
                DistArray2<double>& X, int system_dim) {
  const MtriShape shape = check_shape(F, X, system_dim);
  run_pipelined(X, shape, [&](int j) {
    auto f = to_vector(F.fix(system_dim, j).local_strided());
    const std::size_t m = f.size();
    return std::tuple{std::vector<double>(m, lo), std::vector<double>(m, diag),
                      std::vector<double>(m, up), std::move(f)};
  });
}

}  // namespace kali
