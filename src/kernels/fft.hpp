// Radix-2 complex FFT — one of the paper's named one-dimensional kernels
// ("cubic spline fitting routines, Fast Fourier Transforms, and so forth").
//
// The sequential kernel below is composed into a distributed 2-D FFT in the
// tensor_fft example: row FFTs under one distribution, a redistribute
// (transpose), then row FFTs again — the canonical tensor product pattern.
#pragma once

#include <complex>
#include <span>

namespace kali {

/// Approximate flops of an n-point complex FFT: kFftFlopsFactor * n * log2 n.
inline constexpr double kFftFlopsFactor = 5.0;

/// In-place radix-2 FFT; n must be a power of two.  The inverse transform
/// includes the 1/n normalization.  The butterflies run in real arithmetic
/// over per-stage twiddle tables, each filled by the w *= wl recurrence, so
/// the output is bit-identical to the textbook std::complex loop that
/// advances w inside every block (tests/test_fft.cpp pins it byte for byte).
void fft_inplace(std::span<std::complex<double>> data, bool inverse = false);

/// Modeled flop count for charging the cost model.
double fft_flops(int n);

}  // namespace kali
