// Gather/scatter helpers between distributed arrays and the view root —
// used by tests and benches to verify distributed results against
// sequential references.
#pragma once

#include <cstdint>

#include "runtime/dist_array.hpp"

namespace kali {

/// Row-major linearization of a global index.
template <class T, int R>
std::int64_t linearize(const DistArray<T, R>& A,
                       typename DistArray<T, R>::Extents g) {
  std::int64_t f = 0;
  for (int d = 0; d < R; ++d) {
    f = f * A.extent(d) + g[static_cast<std::size_t>(d)];
  }
  return f;
}

namespace detail {

template <class T>
struct IdxVal {
  std::int64_t idx;
  T val;
};

/// This member's owned elements as (linear index, value) packets — the
/// contribution both collection helpers send.
template <class T, int R>
std::vector<IdxVal<T>> pack_owned(const DistArray<T, R>& A) {
  std::vector<IdxVal<T>> mine;
  A.for_each_owned([&](GIndex<R> g) {
    mine.push_back({linearize(A, g), A.at(g)});
  });
  return mine;
}

/// Scatter gathered (linear index, value) packets into a dense row-major
/// global array.  Replicated (star) dims contribute duplicates; values must
/// agree (they do for coherently-written arrays), so later packets simply
/// overwrite earlier ones.
template <class T, int R>
std::vector<T> scatter_idxval(const DistArray<T, R>& A,
                              const std::vector<IdxVal<T>>& all) {
  std::int64_t total = 1;
  for (int d = 0; d < R; ++d) {
    total *= A.extent(d);
  }
  std::vector<T> out(static_cast<std::size_t>(total), T{});
  for (const auto& iv : all) {
    out[static_cast<std::size_t>(iv.idx)] = iv.val;
  }
  return out;
}

}  // namespace detail

/// Collect the full global contents on the view's root member (linear index
/// 0).  Returns the row-major array there; an empty vector elsewhere.
/// Collective over the view.  Replicated (star) dims are contributed by all
/// owners; values must agree (they do for coherently-written arrays).
template <class T, int R>
std::vector<T> gather_global(const DistArray<T, R>& A) {
  if (!A.participating()) {
    return {};
  }
  Context& ctx = A.context();
  const std::vector<detail::IdxVal<T>> mine = detail::pack_owned(A);
  auto all = gather(ctx, A.view(), 0, std::span<const detail::IdxVal<T>>(mine));
  if (ctx.rank() != A.view().rank_at(0)) {
    return {};
  }
  return detail::scatter_idxval(A, all);
}

/// Replicate the full global contents on every member.  Built on the
/// round-scheduled all_gather collective (one dense pairwise exchange)
/// rather than the old gather-to-root + broadcast ladder, so the root is
/// never a serialization hot spot and, under link contention, every round
/// is a perfect matching.
template <class T, int R>
std::vector<T> gather_all(const DistArray<T, R>& A) {
  if (!A.participating()) {
    return {};
  }
  Context& ctx = A.context();
  const std::vector<detail::IdxVal<T>> mine = detail::pack_owned(A);
  const auto all =
      all_gather(ctx, A.view(), std::span<const detail::IdxVal<T>>(mine));
  return detail::scatter_idxval(A, all);
}

}  // namespace kali
