// Random processor views for property tests: the shapes the runtime
// builds, a grid1/2/3 root and a chain of fix and sub slices.
#pragma once

#include "machine/proc_view.hpp"
#include "support/rng.hpp"

namespace kali {

/// A random view as the runtime builds them: a grid1/2/3 root with a
/// random base, then a random chain of fix and sub slices.
inline ProcView random_view(Rng& rng) {
  const int nd = rng.uniform_int(1, 3);
  const int base = rng.uniform_int(0, 9);
  const int a = rng.uniform_int(1, 5);
  const int b = rng.uniform_int(1, 5);
  const int c = rng.uniform_int(1, 5);
  ProcView v = nd == 1   ? ProcView::grid1(a, base)
               : nd == 2 ? ProcView::grid2(a, b, base)
                         : ProcView::grid3(a, b, c, base);
  for (int step = rng.uniform_int(0, 3); step > 0; --step) {
    const int d = rng.uniform_int(0, v.ndims() - 1);
    const int e = v.extent(d);
    if (rng.uniform_int(0, 1) == 0) {
      v = v.fix(d, rng.uniform_int(0, e - 1));
    } else {
      const int lo = rng.uniform_int(0, e - 1);
      v = v.sub(d, lo, rng.uniform_int(1, e - lo));
    }
  }
  return v;
}

}  // namespace kali
