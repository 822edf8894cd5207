#include "kernels/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

using cd = std::complex<double>;

/// The radix-2 kernel as first written: std::complex butterflies with the
/// twiddle advanced by w *= wl inside every block.  fft_inplace must
/// reproduce it byte for byte.
void fft_recurrence_oracle(std::vector<cd>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 1) {
    return;
  }
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
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const cd wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cd w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cd u = data[i + k];
        const cd v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& z : data) {
      z *= inv_n;
    }
  }
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<cd> v(8, cd(0, 0));
  v[0] = cd(1, 0);
  fft_inplace(v);
  for (const auto& z : v) {
    EXPECT_NEAR(z.real(), 1.0, 1e-12);
    EXPECT_NEAR(z.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const int n = 64, tone = 5;
  std::vector<cd> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * tone * i / n;
    v[static_cast<std::size_t>(i)] = cd(std::cos(ang), std::sin(ang));
  }
  fft_inplace(v);
  for (int k = 0; k < n; ++k) {
    const double mag = std::abs(v[static_cast<std::size_t>(k)]);
    if (k == tone) {
      EXPECT_NEAR(mag, static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-9);
    }
  }
}

class FftP : public ::testing::TestWithParam<int> {};

TEST_P(FftP, RoundTripRecoversInput) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  std::vector<cd> v(static_cast<std::size_t>(n)), orig;
  for (auto& z : v) {
    z = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  }
  orig = v;
  fft_inplace(v, false);
  fft_inplace(v, true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST_P(FftP, ParsevalHolds) {
  const int n = GetParam();
  Rng rng(99 + static_cast<std::uint64_t>(n));
  std::vector<cd> v(static_cast<std::size_t>(n));
  double time_energy = 0.0;
  for (auto& z : v) {
    z = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
    time_energy += std::norm(z);
  }
  fft_inplace(v);
  double freq_energy = 0.0;
  for (const auto& z : v) {
    freq_energy += std::norm(z);
  }
  EXPECT_NEAR(freq_energy, time_energy * n, 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftP, ::testing::Values(1, 2, 4, 8, 32, 256, 1024));

TEST(Fft, BitIdenticalToRecurrenceOracle) {
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    for (const bool inverse : {false, true}) {
      Rng rng(7 * n + (inverse ? 1 : 0));
      std::vector<cd> v(n);
      for (auto& z : v) {
        // Mixed magnitudes and signed zeros exercise rounding and -0.0.
        const double scale = std::ldexp(1.0, rng.uniform_int(-30, 30));
        z = cd(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale);
        if (rng.uniform() < 0.05) {
          z = cd(-0.0, rng.uniform() < 0.5 ? 0.0 : -0.0);
        }
      }
      std::vector<cd> want = v;
      fft_recurrence_oracle(want, inverse);
      fft_inplace(v, inverse);
      EXPECT_EQ(std::memcmp(v.data(), want.data(), n * sizeof(cd)), 0)
          << "n = " << n << (inverse ? " inverse" : " forward");
    }
  }
}

TEST(Fft, NonPowerOfTwoThrows) {
  std::vector<cd> v(6);
  EXPECT_THROW(fft_inplace(v), Error);
}

TEST(Fft, FlopModelGrowsAsNLogN) {
  EXPECT_DOUBLE_EQ(fft_flops(1), 0.0);
  EXPECT_DOUBLE_EQ(fft_flops(8), kFftFlopsFactor * 8 * 3);
  EXPECT_GT(fft_flops(1024), 10.0 * fft_flops(64));
}

}  // namespace
}  // namespace kali
