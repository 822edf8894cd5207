#include "kernels/fft2.hpp"

#include <vector>

#include "kernels/fft.hpp"
#include "machine/context.hpp"
#include "runtime/redistribute.hpp"
#include "support/check.hpp"

namespace kali {

void fft_lines(DistArray2<Complex>& a, int dim, bool inverse) {
  if (!a.participating()) {
    return;
  }
  KALI_CHECK(a.dist_kind(dim) == DistKind::kStar,
             "fft_lines: transform dimension must be local (*)");
  const int other = 1 - dim;
  const int n = a.extent(dim);
  Context& ctx = a.context();
  std::vector<Complex> line(static_cast<std::size_t>(n));
  for (int r : a.owned(other)) {
    const Strided<Complex> s = a.fix(other, r).local_strided();
    for (int k = 0; k < n; ++k) {
      line[static_cast<std::size_t>(k)] = s[k];
    }
    fft_inplace(line, inverse);
    ctx.compute(fft_flops(n));
    for (int k = 0; k < n; ++k) {
      s[k] = line[static_cast<std::size_t>(k)];
    }
  }
}

void fft2_forward(Context& ctx, DistArray2<Complex>& rows,
                  DistArray2<Complex>& cols) {
  KALI_CHECK(rows.dist_kind(1) == DistKind::kStar &&
                 cols.dist_kind(0) == DistKind::kStar,
             "fft2: rows must be (block, *), cols (*, block)");
  fft_lines(rows, 1, /*inverse=*/false);
  // The distributed transpose: (block, *) -> (*, block) is box-eligible, so
  // redistribute() exchanges contiguous slabs between intersecting rank
  // pairs only — no per-element index metadata on the wire.
  redistribute(ctx, rows, cols);
  fft_lines(cols, 0, /*inverse=*/false);
}

void fft2_inverse(Context& ctx, DistArray2<Complex>& cols,
                  DistArray2<Complex>& rows) {
  fft_lines(cols, 0, /*inverse=*/true);
  redistribute(ctx, cols, rows);
  fft_lines(rows, 1, /*inverse=*/true);
}

}  // namespace kali
