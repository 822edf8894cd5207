// Distributed 2-D FFT low-pass filtering — the paper's "picture processing"
// motivation (section 1) with its other named 1-D kernel, the FFT
// (section 3), composed by the canonical tensor product pattern:
//
//   row FFTs under dist (block, *)   — every row local
//   redistribute to dist (*, block)  — the transpose communication
//   column FFTs                      — every column local
//
// A synthetic image is first transformed there and back (the round trip must
// reproduce it), then filtered by zeroing high-frequency coefficients and
// transformed back; we report energy removed and both errors, and exit
// non-zero when either passes its tolerance.
#include <algorithm>
#include <cmath>
#include <complex>
#include <iostream>

#include "kernels/fft2.hpp"
#include "machine/collectives.hpp"
#include "runtime/redistribute.hpp"
#include "support/table.hpp"

namespace {

using cd = std::complex<double>;

/// Forward + inverse must reproduce the image to rounding.
constexpr double kRoundTripTol = 1e-12;
/// Truncating the blob's spectrum at |freq| < kCut leaves ~8.6e-3.
constexpr double kFilterTol = 1e-2;

double image(int i, int j, int n) {
  const double x = static_cast<double>(i) / n, y = static_cast<double>(j) / n;
  // smooth blob + high-frequency checkerboard "noise"
  return std::exp(-8.0 * ((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5))) +
         0.2 * ((i + j) % 2 == 0 ? 1.0 : -1.0);
}

}  // namespace

int main() {
  using namespace kali;
  constexpr int kP = 4, kN = 64, kCut = 12;  // keep |freq| < kCut

  Machine machine(kP);
  double removed_energy = 0.0, smooth_err = 0.0, roundtrip_err = 0.0;
  machine.run([&](Context& ctx) {
    ProcView procs = ProcView::grid1(kP);
    using DC = DistArray2<cd>;
    const typename DC::Dists by_rows{DimDist::block_dist(), DimDist::star()};
    const typename DC::Dists by_cols{DimDist::star(), DimDist::block_dist()};
    DC rows(ctx, procs, {kN, kN}, by_rows);
    DC cols(ctx, procs, {kN, kN}, by_cols);
    rows.fill([&](std::array<int, 2> g) {
      return cd(image(g[0], g[1], kN), 0.0);
    });

    // Round trip: transform there and back, compare with the image.
    fft2_forward(ctx, rows, cols);
    fft2_inverse(ctx, cols, rows);
    double rt = 0.0;
    rows.for_each_owned([&](std::array<int, 2> g) {
      rt = std::max(rt, std::abs(rows.at(g) - cd(image(g[0], g[1], kN), 0.0)));
    });
    rt = allreduce_max(ctx, procs, rt);

    // Forward transform: rows, distributed transpose, columns.
    fft2_forward(ctx, rows, cols);

    // Low-pass filter in place (cols layout owns full columns).
    double removed = 0.0, total = 0.0;
    auto freq_ok = [&](int k) {
      const int f = k <= kN / 2 ? k : kN - k;
      return f < kCut;
    };
    cols.for_each_owned([&](std::array<int, 2> g) {
      const double e = std::norm(cols.at(g));
      total += e;
      if (!freq_ok(g[0]) || !freq_ok(g[1])) {
        removed += e;
        cols.at(g) = cd(0.0, 0.0);
      }
    });
    ctx.compute(2.0 * kN * kN / kP);

    // Inverse transform: columns, transpose back, rows.
    fft2_inverse(ctx, cols, rows);

    // The filtered image should match the smooth blob (the checkerboard
    // lives at the Nyquist corner and is removed entirely).
    double err = 0.0;
    rows.for_each_owned([&](std::array<int, 2> g) {
      const double x = static_cast<double>(g[0]) / kN;
      const double y = static_cast<double>(g[1]) / kN;
      const double smooth =
          std::exp(-8.0 * ((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5)));
      err = std::max(err, std::abs(rows.at(g).real() - smooth));
    });
    err = allreduce_max(ctx, procs, err);
    removed = allreduce_sum(ctx, procs, removed);
    total = allreduce_sum(ctx, procs, total);
    if (ctx.rank() == 0) {
      removed_energy = removed / total;
      smooth_err = err;
      roundtrip_err = rt;
    }
  });

  std::cout << "distributed 2-D FFT low-pass filter, " << kN << "x" << kN
            << " image on " << kP << " procs\n"
            << "  spectral energy removed : " << fmt(100.0 * removed_energy, 1)
            << " %\n"
            << "  max |round trip - image|: " << fmt_sci(roundtrip_err) << "\n"
            << "  max |filtered - smooth| : " << fmt_sci(smooth_err)
            << "  (checkerboard eliminated)\n"
            << "  simulated time          : "
            << fmt_time(machine.stats().max_clock()) << "\n";
  if (!(roundtrip_err <= kRoundTripTol) || !(smooth_err <= kFilterTol)) {
    std::cerr << "tensor_fft: error above tolerance (round trip "
              << fmt_sci(kRoundTripTol) << ", filter " << fmt_sci(kFilterTol)
              << ")\n";
    return 1;
  }
  return 0;
}
