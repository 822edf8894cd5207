#include "kernels/fft2.hpp"

#include <vector>

#include "kernels/fft.hpp"
#include "machine/context.hpp"
#include "runtime/redistribute.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

/// The FFT along `dim` of one line of `a`, as a callable taking the
/// line's index along the other dim; it owns its scratch line.
auto line_fft(DistArray2<Complex>& a, int dim, bool inverse) {
  std::vector<Complex> buf(static_cast<std::size_t>(a.extent(dim)));
  return [&a, dim, inverse, buf = std::move(buf)](int r) mutable {
    const Strided<Complex> s = a.fix(1 - dim, r).local_strided();
    for (int k = 0; k < s.n; ++k) {
      buf[static_cast<std::size_t>(k)] = s[k];
    }
    fft_inplace(buf, inverse);
    a.context().compute(fft_flops(s.n));
    for (int k = 0; k < s.n; ++k) {
      s[k] = buf[static_cast<std::size_t>(k)];
    }
  };
}

/// One 2-D transform: the FFTs along `dim` of `a`, pipelined into the
/// distributed transpose a -> b (each slice of finished lines is on the
/// wire while the next slice transforms), then the FFTs along the other
/// dim of b.
void fft2(Context& ctx, DistArray2<Complex>& a, DistArray2<Complex>& b,
          int dim, bool inverse) {
  KALI_CHECK(a.dist_kind(dim) == DistKind::kStar &&
                 b.dist_kind(1 - dim) == DistKind::kStar,
             "fft2: rows must be (block, *), cols (*, block)");
  redistribute_lines(ctx, a, b, 1 - dim, line_fft(a, dim, inverse));
  fft_lines(b, 1 - dim, inverse);
}

}  // namespace

void fft_lines(DistArray2<Complex>& a, int dim, bool inverse) {
  if (!a.participating()) {
    return;
  }
  KALI_CHECK(a.dist_kind(dim) == DistKind::kStar,
             "fft_lines: transform dimension must be local (*)");
  auto fft = line_fft(a, dim, inverse);
  for (int r : a.owned(1 - dim)) {
    fft(r);
  }
}

void fft2_forward(Context& ctx, DistArray2<Complex>& rows,
                  DistArray2<Complex>& cols) {
  // The distributed transpose (block, *) -> (*, block) is box-eligible:
  // contiguous slabs between intersecting rank pairs only.
  fft2(ctx, rows, cols, 1, /*inverse=*/false);
}

void fft2_inverse(Context& ctx, DistArray2<Complex>& cols,
                  DistArray2<Complex>& rows) {
  fft2(ctx, cols, rows, 0, /*inverse=*/true);
}

}  // namespace kali
