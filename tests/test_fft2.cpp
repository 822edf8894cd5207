#include "kernels/fft2.hpp"

#include "kernels/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "machine/context.hpp"
#include "runtime/io.hpp"
#include "runtime/redistribute.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

struct Layouts {
  DistArray2<Complex> rows;
  DistArray2<Complex> cols;
};

Layouts make(Context& ctx, const ProcView& pv, int n) {
  using DC = DistArray2<Complex>;
  DC rows(ctx, pv, {n, n}, {DimDist::block_dist(), DimDist::star()});
  DC cols(ctx, pv, {n, n}, {DimDist::star(), DimDist::block_dist()});
  return {std::move(rows), std::move(cols)};
}

class Fft2P : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Fft2P, RoundTripRecoversInput) {
  const auto [p, n] = GetParam();
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    auto [rows, cols] = make(ctx, pv, n);
    Rng rng(42);
    std::vector<double> ref(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (auto& v : ref) {
      v = rng.uniform(-1, 1);
    }
    rows.fill([&](std::array<int, 2> g) {
      return Complex(ref[static_cast<std::size_t>(g[0] * n + g[1])], 0.0);
    });
    fft2_forward(ctx, rows, cols);
    fft2_inverse(ctx, cols, rows);
    rows.for_each_owned([&](std::array<int, 2> g) {
      EXPECT_NEAR(rows.at(g).real(),
                  ref[static_cast<std::size_t>(g[0] * n + g[1])], 1e-10);
      EXPECT_NEAR(rows.at(g).imag(), 0.0, 1e-10);
    });
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, Fft2P,
                         ::testing::Values(std::tuple{1, 8}, std::tuple{2, 16},
                                           std::tuple{4, 16},
                                           std::tuple{4, 32}));

TEST(Fft2, PlaneWaveConcentratesInOneBin) {
  const int p = 4, n = 16, fx = 3, fy = 5;
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    auto [rows, cols] = make(ctx, pv, n);
    rows.fill([&](std::array<int, 2> g) {
      const double ang =
          2.0 * std::numbers::pi * (fx * g[0] + fy * g[1]) / n;
      return Complex(std::cos(ang), std::sin(ang));
    });
    fft2_forward(ctx, rows, cols);
    cols.for_each_owned([&](std::array<int, 2> g) {
      const double mag = std::abs(cols.at(g));
      if (g[0] == fx && g[1] == fy) {
        EXPECT_NEAR(mag, static_cast<double>(n) * n, 1e-8);
      } else {
        EXPECT_NEAR(mag, 0.0, 1e-8);
      }
    });
  });
}

TEST(Fft2, MatchesSequentialTransform) {
  const int p = 2, n = 8;
  Machine m(p);
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(p);
    auto [rows, cols] = make(ctx, pv, n);
    rows.fill([&](std::array<int, 2> g) {
      return Complex(0.1 * g[0] - 0.2 * g[1], 0.05 * g[0] * g[1]);
    });
    // Sequential reference: row FFTs then column FFTs on a local copy.
    std::vector<Complex> ref(static_cast<std::size_t>(n) * n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        ref[static_cast<std::size_t>(i * n + j)] =
            Complex(0.1 * i - 0.2 * j, 0.05 * i * j);
      }
    }
    for (int i = 0; i < n; ++i) {
      fft_inplace(std::span<Complex>(ref.data() + i * n, static_cast<std::size_t>(n)));
    }
    std::vector<Complex> col(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        col[static_cast<std::size_t>(i)] = ref[static_cast<std::size_t>(i * n + j)];
      }
      fft_inplace(col);
      for (int i = 0; i < n; ++i) {
        ref[static_cast<std::size_t>(i * n + j)] = col[static_cast<std::size_t>(i)];
      }
    }
    fft2_forward(ctx, rows, cols);
    cols.for_each_owned([&](std::array<int, 2> g) {
      const Complex expect = ref[static_cast<std::size_t>(g[0] * n + g[1])];
      EXPECT_NEAR(cols.at(g).real(), expect.real(), 1e-9);
      EXPECT_NEAR(cols.at(g).imag(), expect.imag(), 1e-9);
    });
  });
}

TEST(Fft2, BitIdenticalUnderEveryContentionTier) {
  // The contention models change clocks only: the distributed FFT's
  // pipelined transpose sends the same slice payloads between the same
  // pairs, each slice on a lane after the one before and unpacked into its
  // fixed place, so the spectrum is bit-identical with ports or
  // store-and-forward queueing on.
  const int p = 4, n = 16;
  auto run = [&](LinkContention mode) {
    MachineConfig cfg;
    cfg.topology = Topology::kMesh2D;
    cfg.link_contention = mode;
    Machine m(p, cfg);
    std::vector<Complex> probe;
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(p);
      auto [rows, cols] = make(ctx, pv, n);
      rows.fill([&](std::array<int, 2> g) {
        return Complex(0.3 * g[0] + 0.1 * g[1], 0.02 * g[0] * g[1]);
      });
      fft2_forward(ctx, rows, cols);
      if (ctx.rank() == 1) {
        cols.for_each_owned(
            [&](std::array<int, 2> g) { probe.push_back(cols.at(g)); });
      }
    });
    return std::pair{probe, m.stats().max_clock()};
  };
  const auto [base, clock_off] = run(LinkContention::kNone);
  ASSERT_FALSE(base.empty());
  for (LinkContention mode :
       {LinkContention::kPorts, LinkContention::kStoreForward}) {
    const auto [got, clock_on] = run(mode);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t k = 0; k < base.size(); ++k) {
      EXPECT_EQ(got[k].real(), base[k].real());  // bit-identical
      EXPECT_EQ(got[k].imag(), base[k].imag());
    }
    EXPECT_GE(clock_on, clock_off);
  }
}

TEST(Fft2, PipelinedTransposeBeatsRowPassThenRedistribute) {
  // fft2_sf's smoke shape: 128^2 on a 16-rank mesh under store-and-forward.
  // Sending each slice of finished rows while the next slice transforms
  // must lower the makespan below the row FFTs, one redistribute and the
  // column FFTs run one after the other — with a bit-identical spectrum.
  const int p = 16, n = 128;
  auto run = [&](bool pipelined) {
    MachineConfig cfg;
    cfg.topology = Topology::kMesh2D;
    cfg.link_contention = LinkContention::kStoreForward;
    Machine m(p, cfg);
    std::vector<Complex> spectrum(static_cast<std::size_t>(n * n));
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid1(p);
      auto [rows, cols] = make(ctx, pv, n);
      rows.fill([&](std::array<int, 2> g) {
        return Complex(std::sin(0.3 * g[0] + 0.1 * g[1]), 0.01 * g[0] * g[1]);
      });
      if (pipelined) {
        fft2_forward(ctx, rows, cols);
      } else {
        fft_lines(rows, 1, /*inverse=*/false);
        redistribute(ctx, rows, cols);
        fft_lines(cols, 0, /*inverse=*/false);
      }
      cols.for_each_owned([&](std::array<int, 2> g) {
        spectrum[static_cast<std::size_t>(g[0] * n + g[1])] = cols.at(g);
      });
    });
    return std::pair{spectrum, m.stats().max_clock()};
  };
  const auto [want, oracle_clock] = run(false);
  const auto [got, clock] = run(true);
  EXPECT_EQ(got, want);  // bit-identical
  EXPECT_LT(clock, oracle_clock);
}

TEST(Fft2, RejectsDistributedTransformDim) {
  Machine m(2);
  EXPECT_THROW(m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<Complex> a(ctx, pv, {8, 8},
                          {DimDist::block_dist(), DimDist::star()});
    fft_lines(a, 0, false);  // dim 0 is distributed
  }),
               Error);
}

}  // namespace
}  // namespace kali
