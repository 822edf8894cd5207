#include "kernels/tri.hpp"

#include "kernels/tri_pipeline.hpp"
#include "machine/context.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

void check_conforming(const DistArray1<double>& a, const DistArray1<double>& x) {
  KALI_CHECK(a.extent(0) == x.extent(0), "tri: extent mismatch");
  KALI_CHECK(a.view() == x.view(), "tri: arrays on different views");
  KALI_CHECK(a.dist_kind(0) == DistKind::kBlock && x.dist_kind(0) == DistKind::kBlock,
             "tri: arrays must be block distributed");
}

void run_pipeline_to_completion(detail::TriPipeline& pipe,
                                DistArray1<double>& x) {
  if (!pipe.member()) {
    return;
  }
  for (int q = 0; q < pipe.positions(); ++q) {
    pipe.run_position(q);
  }
  const auto& sol = pipe.solution();
  auto xs = x.local_strided();
  KALI_CHECK(static_cast<int>(sol.size()) == xs.n, "tri: solution size");
  for (int i = 0; i < xs.n; ++i) {
    xs[i] = sol[static_cast<std::size_t>(i)];
  }
}

}  // namespace

int tri_trace_steps(int p) {
  if (p == 1) {
    return 1;
  }
  return 2 * detail::checked_log2(p) + 1;
}

void tri(const DistArray1<double>& b, const DistArray1<double>& a,
         const DistArray1<double>& c, const DistArray1<double>& f,
         DistArray1<double>& x) {
  check_conforming(a, x);
  check_conforming(b, x);
  check_conforming(c, x);
  check_conforming(f, x);
  if (!x.participating()) {
    return;
  }
  Context& ctx = x.context();
  detail::TriPipeline pipe(ctx, x.view(), /*sys=*/0);
  pipe.set_local(to_vector(b.local_strided()), to_vector(a.local_strided()),
                 to_vector(c.local_strided()), to_vector(f.local_strided()));
  run_pipeline_to_completion(pipe, x);
}

void tric(double lo, double diag, double up, const DistArray1<double>& f,
          DistArray1<double>& x) {
  check_conforming(f, x);
  if (!x.participating()) {
    return;
  }
  Context& ctx = x.context();
  const auto m = static_cast<std::size_t>(f.local_count(0));
  detail::TriPipeline pipe(ctx, x.view(), /*sys=*/0);
  pipe.set_local(std::vector<double>(m, lo), std::vector<double>(m, diag),
                 std::vector<double>(m, up), to_vector(f.local_strided()));
  run_pipeline_to_completion(pipe, x);
}

}  // namespace kali
