#include "kernels/fft.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "support/check.hpp"

namespace kali {

void fft_inplace(std::span<std::complex<double>> data, bool inverse) {
  const std::size_t n = data.size();
  KALI_CHECK(n >= 1 && (n & (n - 1)) == 0, "fft: length must be 2^k");
  if (n == 1) {
    return;
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }
  // Butterflies, in real arithmetic on the interleaved (re, im) doubles.
  // A std::complex multiply carries a NaN-recovery branch (__muldc3) that
  // keeps the loop scalar; spelled out, the products below are the same
  // expressions in the same order, so every finite result is bit-identical.
  // Each stage's twiddles come from the w *= wl recurrence, computed once
  // per call rather than once per block.
  double* d = reinterpret_cast<double*>(data.data());
  std::vector<double> twr(n / 2);
  std::vector<double> twi(n / 2);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double ang =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const std::complex<double> wl(std::cos(ang), std::sin(ang));
    std::complex<double> w(1.0, 0.0);
    for (std::size_t k = 0; k < half; ++k) {
      twr[k] = w.real();
      twi[k] = w.imag();
      w *= wl;
    }
    for (std::size_t i = 0; i < n; i += len) {
      double* lo = d + 2 * i;
      double* hi = lo + len;  // element i + half
      for (std::size_t k = 0; k < half; ++k) {
        const double ur = lo[2 * k];
        const double ui = lo[2 * k + 1];
        const double br = hi[2 * k];
        const double bi = hi[2 * k + 1];
        const double vr = br * twr[k] - bi * twi[k];
        const double vi = br * twi[k] + bi * twr[k];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      d[i] *= inv_n;
    }
  }
}

double fft_flops(int n) {
  if (n <= 1) {
    return 0.0;
  }
  return kFftFlopsFactor * static_cast<double>(n) *
         std::log2(static_cast<double>(n));
}

}  // namespace kali
