// Seeded differential test for the one exchange primitive
// (detail::exchange_begin, machine/schedule.hpp): every exchange — the
// halo in both HaloCorners modes, the box exchange and the cyclic binner
// behind redistribute and copy_strided_dim, the halo-fused
// copy_strided_dim_halo, the dense all_gather and the inspector gather —
// must deliver the values and the per-tag message ledgers of the blocking
// loops it replaced (tests/oracles/blocking_exchange.hpp), in all three
// link-contention tiers, whether it is finished at once or with work in
// its window; and its clocks must be identical across host worker counts.
//
// Each seed draws P, the processor-grid shape, extents, halo widths, the
// block / cyclic / block-cyclic kind of every distributed dim, strides,
// offsets, gather indices and the issue order (support/rng.hpp).  A
// mismatch names the failing seed and its shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "oracles/blocking_exchange.hpp"
#include "runtime/dist_array.hpp"
#include "runtime/inspector.hpp"
#include "runtime/redistribute.hpp"
#include "runtime/remap.hpp"
#include "support/rng.hpp"

namespace kali {
namespace {

using D1 = DistArray1<double>;
using D2 = DistArray2<double>;

constexpr LinkContention kTiers[] = {LinkContention::kNone,
                                     LinkContention::kPorts,
                                     LinkContention::kStoreForward};

/// How a workload runs its exchanges.
enum class Path {
  kOracle,    ///< the blocking loops of tests/oracles/blocking_exchange.hpp
  kBlocking,  ///< the runtime's blocking forms (_begin(...).finish())
  kSplit,     ///< the _begin forms, with owned-cell work in the window
};

/// One seed's draw.
struct Shape {
  int px = 1;  ///< processor grid px x py
  int py = 1;
  IssueOrder order = IssueOrder::kRoundSchedule;
  // Halo, both modes: (block, block) on the grid.
  std::array<int, 2> halo_n{};
  std::array<int, 2> halo_w{};
  // Redistribute: src on the grid, dst on the transposed grid or a line.
  std::array<int, 2> redist_n{};
  D2::Dists redist_src{};
  D2::Dists redist_dst{};
  bool redist_dst_line = false;
  // Strided copy along copy_dim.
  int copy_dim = 0;
  std::array<int, 2> copy_src_n{};
  std::array<int, 2> copy_dst_n{};
  D2::Dists copy_src{};
  D2::Dists copy_dst{};
  int s_stride = 1, s_off = 0, d_stride = 1, d_off = 0, count = 0;
  // Gather over a 1-D array on a line of P ranks.
  int gather_n = 1;
  DimDist gather_dist{};
  // copy_strided_dim_halo with copy's extents and strides, (block, block)
  // on both sides, dst's halo widths no wider than its thinnest block.
  std::array<int, 2> fuse_w{};
  std::uint64_t seed = 0;

  [[nodiscard]] int nprocs() const { return px * py; }
};

DimDist draw_dist(Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return DimDist::block_dist();
    case 1:
      return DimDist::cyclic();
    default:
      return DimDist::block_cyclic(rng.uniform_int(1, 3));
  }
}

std::string dist_name(const DimDist& d) {
  switch (d.kind) {
    case DistKind::kBlock:
      return "block";
    case DistKind::kCyclic:
      return "cyclic";
    case DistKind::kBlockCyclic:
      return "block_cyclic" + std::to_string(d.block);
    case DistKind::kStar:
      return "*";
  }
  return "?";
}

Shape draw_shape(std::uint64_t seed) {
  Rng rng(seed);
  Shape s;
  s.seed = seed;
  s.px = rng.uniform_int(1, 4);
  s.py = rng.uniform_int(1, 2);
  s.order = rng.uniform_int(0, 3) == 0 ? IssueOrder::kPeerOrder
                                       : IssueOrder::kRoundSchedule;
  const std::array<int, 2> grid{s.px, s.py};
  for (std::size_t d = 0; d < 2; ++d) {
    // Equal blocks, every one at least a halo wide.
    s.halo_w[d] = rng.uniform_int(0, 2);
    s.halo_n[d] = grid[d] * rng.uniform_int(std::max(1, s.halo_w[d]), 5);
    s.redist_n[d] = rng.uniform_int(1, 13);
    s.redist_src[d] = draw_dist(rng);
    s.redist_dst[d] = draw_dist(rng);
    s.copy_src[d] = draw_dist(rng);
    s.copy_dst[d] = draw_dist(rng);
  }
  s.redist_dst_line = rng.uniform_int(0, 1) == 1;
  if (s.redist_dst_line) {
    s.redist_dst[1] = DimDist::star();
  }
  s.copy_dim = rng.uniform_int(0, 1);
  const auto cd = static_cast<std::size_t>(s.copy_dim);
  for (std::size_t d = 0; d < 2; ++d) {
    s.copy_src_n[d] = rng.uniform_int(2, 12);
    s.copy_dst_n[d] = d == cd ? rng.uniform_int(2, 12) : s.copy_src_n[d];
  }
  s.s_stride = rng.uniform_int(1, 2);
  s.d_stride = rng.uniform_int(1, 2);
  s.s_off = rng.uniform_int(0, 1);
  s.d_off = rng.uniform_int(0, 1);
  s.count = std::min((s.copy_src_n[cd] - 1 - s.s_off) / s.s_stride,
                     (s.copy_dst_n[cd] - 1 - s.d_off) / s.d_stride) +
            1;
  s.gather_n = s.nprocs() * rng.uniform_int(1, 5);
  s.gather_dist = draw_dist(rng);
  // Drawn last, so the draws above match the shapes earlier seeds gave.
  const std::array<int, 2> tgrid{s.py, s.px};
  for (std::size_t d = 0; d < 2; ++d) {
    const DimMap map(DimDist::block_dist(), s.copy_dst_n[d], tgrid[d]);
    int thinnest = map.count(0);
    for (int k = 1; k < tgrid[d]; ++k) {
      thinnest = std::min(thinnest, map.count(k));
    }
    s.fuse_w[d] = std::min(rng.uniform_int(0, 2), thinnest);
  }
  return s;
}

std::string describe(const Shape& s) {
  auto two = [](std::ostringstream& os, const D2::Dists& d) {
    os << "(" << dist_name(d[0]) << ", " << dist_name(d[1]) << ")";
  };
  std::ostringstream os;
  os << "seed " << s.seed << ": P=" << s.nprocs() << " grid " << s.px << "x"
     << s.py << (s.order == IssueOrder::kPeerOrder ? " peer-order" : "")
     << "; halo " << s.halo_n[0] << "x" << s.halo_n[1] << " w "
     << s.halo_w[0] << "," << s.halo_w[1] << "; redistribute "
     << s.redist_n[0] << "x" << s.redist_n[1] << " ";
  two(os, s.redist_src);
  os << " -> ";
  two(os, s.redist_dst);
  os << (s.redist_dst_line ? " on a line" : "") << "; copy dim " << s.copy_dim
     << " ";
  two(os, s.copy_src);
  os << " -> ";
  two(os, s.copy_dst);
  os << " stride " << s.s_stride << "/" << s.d_stride << " off " << s.s_off
     << "/" << s.d_off << " count " << s.count << "; gather n " << s.gather_n
     << " " << dist_name(s.gather_dist) << "; fused halo w " << s.fuse_w[0]
     << "," << s.fuse_w[1];
  return os.str();
}

/// Owned-cell work for an exchange's window (or after a blocking one):
/// reads only `a`'s owned cells, never anything in flight.
template <int R>
void owned_work(const DistArray<double, R>& a, std::vector<double>& out) {
  double n = 0.0;
  a.for_each_owned([&](const GIndex<R>& g) {
    out.push_back(0.5 * a.at(g) + 1.0);
    n += 1.0;
  });
  a.context().compute(3.0 * n);
}

template <int R>
void owned_values(const DistArray<double, R>& a, std::vector<double>& out) {
  a.for_each_owned([&](const GIndex<R>& g) { out.push_back(a.at(g)); });
}

double value_of(int i, int j) { return 0.5 * i - 0.125 * j + 0.03 * i * j; }

/// `a`'s owned cells and ghost margins, row-major.
void slab_values(const D2& a, std::vector<double>& out) {
  const int w0 = a.halo(0);
  const int w1 = a.halo(1);
  for (int i = a.own_lower(0) - w0; i <= a.own_upper(0) + w0; ++i) {
    for (int j = a.own_lower(1) - w1; j <= a.own_upper(1) + w1; ++j) {
      out.push_back(a.at_halo({i, j}));
    }
  }
}

/// One seed's workload on this rank; `out` collects its values.
void fuzz_prog(Context& ctx, const Shape& s, Path path,
               std::vector<double>& out) {
  const ProcView grid = ProcView::grid2(s.px, s.py);
  const ProcView line = ProcView::grid1(s.nprocs());
  std::vector<double> work;

  // Corner halo, frame cells outside the domain seeded so the boundary
  // pieces carry data too.
  D2 h(ctx, grid, s.halo_n, {DimDist::block_dist(), DimDist::block_dist()},
       s.halo_w);
  h.fill([](std::array<int, 2> g) { return value_of(g[0], g[1]); });
  const int w0 = s.halo_w[0];
  const int w1 = s.halo_w[1];
  for (int i = h.own_lower(0) - w0; i <= h.own_upper(0) + w0; ++i) {
    for (int j = h.own_lower(1) - w1; j <= h.own_upper(1) + w1; ++j) {
      if (i < 0 || j < 0 || i >= s.halo_n[0] || j >= s.halo_n[1]) {
        h.frame({i, j}) = 1000.0 + value_of(i, j);
      }
    }
  }
  // The face halo on a copy of the same array: face mode ignores the
  // drawn order and leaves the corner and frame cells alone.
  D2 f = h.clone();
  for (const HaloCorners corners : {HaloCorners::kYes, HaloCorners::kNo}) {
    D2& a = corners == HaloCorners::kYes ? h : f;
    if (path == Path::kOracle) {
      oracles::blocking_halo(a, corners, s.order);
      owned_work(a, work);
    } else if (path == Path::kBlocking) {
      a.exchange_halo(corners, s.order);
      owned_work(a, work);
    } else {
      PendingExchange ex = a.exchange_halo_begin(corners, s.order);
      owned_work(a, work);
      ex.finish();
    }
    slab_values(a, out);
  }

  // Redistribute between any layouts.
  D2 rs(ctx, grid, s.redist_n, s.redist_src);
  D2 rd(ctx, s.redist_dst_line ? line : ProcView::grid2(s.py, s.px),
        s.redist_n, s.redist_dst);
  rs.fill([](std::array<int, 2> g) { return value_of(g[0], g[1]); });
  if (path == Path::kOracle) {
    oracles::blocking_redistribute(ctx, rs, rd, s.order);
    owned_work(rs, work);
  } else if (path == Path::kBlocking) {
    redistribute(ctx, rs, rd, s.order);
    owned_work(rs, work);
  } else {
    PendingExchange ex = redistribute_begin(ctx, rs, rd, s.order);
    owned_work(rs, work);
    ex.finish();
  }
  owned_values(rd, out);

  // Strided copy between any layouts, dst on the transposed grid.
  D2 cs(ctx, grid, s.copy_src_n, s.copy_src);
  D2 cd(ctx, ProcView::grid2(s.py, s.px), s.copy_dst_n, s.copy_dst);
  cs.fill([](std::array<int, 2> g) { return value_of(g[0], g[1]); });
  if (path == Path::kOracle) {
    oracles::blocking_copy_strided_dim(ctx, cs, cd, s.copy_dim, s.s_stride,
                                       s.s_off, s.d_stride, s.d_off, s.count);
    owned_work(cs, work);
  } else if (path == Path::kBlocking) {
    copy_strided_dim(ctx, cs, cd, s.copy_dim, s.s_stride, s.s_off, s.d_stride,
                     s.d_off, s.count);
    owned_work(cs, work);
  } else {
    PendingExchange ex =
        copy_strided_dim_begin(ctx, cs, cd, s.copy_dim, s.s_stride, s.s_off,
                               s.d_stride, s.d_off, s.count);
    owned_work(cs, work);
    ex.finish();
  }
  owned_values(cd, out);

  // The same strided copy with dst's ghosts fused in, block layouts only.
  const D2::Dists bb{DimDist::block_dist(), DimDist::block_dist()};
  D2 fs(ctx, grid, s.copy_src_n, bb);
  D2 fd(ctx, ProcView::grid2(s.py, s.px), s.copy_dst_n, bb, s.fuse_w);
  fs.fill([](std::array<int, 2> g) { return value_of(g[0], g[1]); });
  if (path == Path::kOracle) {
    oracles::blocking_copy_strided_dim(ctx, fs, fd, s.copy_dim, s.s_stride,
                                       s.s_off, s.d_stride, s.d_off, s.count,
                                       /*fuse_halo=*/true);
    owned_work(fs, work);
  } else if (path == Path::kBlocking) {
    copy_strided_dim_halo(ctx, fs, fd, s.copy_dim, s.s_stride, s.s_off,
                          s.d_stride, s.d_off, s.count);
    owned_work(fs, work);
  } else {
    PendingExchange ex =
        copy_strided_dim_halo_begin(ctx, fs, fd, s.copy_dim, s.s_stride,
                                    s.s_off, s.d_stride, s.d_off, s.count);
    owned_work(fs, work);
    ex.finish();
  }
  slab_values(fd, out);

  // Dense all_gather of per-rank contributions of differing lengths.
  std::vector<double> mine(
      static_cast<std::size_t>((ctx.rank() * 7 + static_cast<int>(s.seed)) % 5),
      0.0);
  for (std::size_t k = 0; k < mine.size(); ++k) {
    mine[k] = ctx.rank() + 0.1 * static_cast<double>(k);
  }
  const std::vector<double> all =
      path == Path::kOracle
          ? oracles::blocking_all_gather(ctx, line,
                                         std::span<const double>(mine), s.order)
          : all_gather(ctx, line, std::span<const double>(mine), s.order);
  out.insert(out.end(), all.begin(), all.end());

  // Inspector/executor gather of random indices.
  D1 a(ctx, line, {s.gather_n}, {s.gather_dist});
  a.fill([](std::array<int, 1> g) { return 0.75 * g[0] - 2.0; });
  Rng rng(s.seed * 31 + static_cast<std::uint64_t>(ctx.rank()));
  std::vector<int> wants(static_cast<std::size_t>(rng.uniform_int(0, 8)));
  for (int& g : wants) {
    g = rng.uniform_int(0, s.gather_n - 1);
  }
  const std::vector<double> got =
      path == Path::kOracle
          ? oracles::blocking_gather(a, std::span<const int>(wants))
          : GatherPlan::build(a, std::span<const int>(wants)).execute(a);
  out.insert(out.end(), got.begin(), got.end());
  out.insert(out.end(), work.begin(), work.end());
}

struct RunResult {
  std::vector<double> values;  // all ranks' values, rank-major
  MachineStats stats;
};

RunResult run(const Shape& s, LinkContention lc, int workers, Path path) {
  MachineConfig cfg;
  cfg.link_contention = lc;
  cfg.sim_workers = workers;
  cfg.allgather_tree_max_bytes = 0;  // pin all_gather's dense path
  Machine m(s.nprocs(), cfg);
  std::vector<std::vector<double>> per_rank(
      static_cast<std::size_t>(s.nprocs()));
  m.run([&](Context& ctx) {
    fuzz_prog(ctx, s, path, per_rank[static_cast<std::size_t>(ctx.rank())]);
  });
  RunResult r;
  for (const auto& v : per_rank) {
    r.values.insert(r.values.end(), v.begin(), v.end());
  }
  r.stats = m.stats();
  return r;
}

/// Values byte for byte and per-tag ledgers; true when all match.
bool same_values_and_ledgers(const RunResult& a, const RunResult& b) {
  bool ok = a.values.size() == b.values.size() &&
            std::memcmp(a.values.data(), b.values.data(),
                        a.values.size() * sizeof(double)) == 0;
  EXPECT_TRUE(ok) << "values differ";
  for (std::size_t r = 0; r < a.stats.per_proc.size(); ++r) {
    const ProcCounters& pa = a.stats.per_proc[r];
    const ProcCounters& pb = b.stats.per_proc[r];
    const bool same = pa.sent_by_tag == pb.sent_by_tag &&
                      pa.recv_by_tag == pb.recv_by_tag &&
                      pa.bytes_sent == pb.bytes_sent &&
                      pa.bytes_recv == pb.bytes_recv;
    EXPECT_TRUE(same) << "rank " << r << ": per-tag ledgers differ";
    ok = ok && same;
  }
  return ok;
}

TEST(ExchangeFuzz, OnePrimitiveMatchesBlockingOracles) {
  constexpr std::uint64_t kSeeds = 24;
  // Messages per exchange tag over every seed's oracle runs: each exchange
  // must have carried traffic somewhere, or the comparison proves nothing.
  const int tags[] = {kTagHalo,      kTagRedistData, kTagRemap,
                      kTagAllGather, kTagInspReq,    kTagInspData};
  std::vector<std::uint64_t> traffic(std::size(tags), 0);
  // The face halo and the fused copy share their tags with the corner halo
  // and the plain copy, so count the seeds whose draw gives them a ghost to
  // send: a face halo with a neighbour along a haloed dim, a fused copy
  // with a halo.
  int face_seeds = 0;
  int fused_seeds = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Shape s = draw_shape(seed);
    SCOPED_TRACE(describe(s));
    face_seeds += (s.px > 1 && s.halo_w[0] > 0) || (s.py > 1 && s.halo_w[1] > 0);
    fused_seeds += s.fuse_w[0] > 0 || s.fuse_w[1] > 0;
    bool ok = true;
    for (LinkContention lc : kTiers) {
      SCOPED_TRACE("tier " + std::to_string(static_cast<int>(lc)));
      const RunResult oracle = run(s, lc, 1, Path::kOracle);
      for (std::size_t k = 0; k < std::size(tags); ++k) {
        traffic[k] += oracle.stats.sent_msgs(tags[k]);
      }
      for (Path path : {Path::kBlocking, Path::kSplit}) {
        SCOPED_TRACE(path == Path::kSplit ? "split" : "blocking");
        const RunResult one = run(s, lc, 1, path);
        const RunResult many = run(s, lc, 3, path);
        ok = same_values_and_ledgers(one, oracle) && ok;
        ok = same_values_and_ledgers(many, oracle) && ok;
        EXPECT_EQ(one.stats.clocks, many.stats.clocks)
            << "clocks depend on the worker count";
        ok = ok && one.stats.clocks == many.stats.clocks;
      }
    }
    if (!ok) {
      ADD_FAILURE() << "failing seed " << seed << " (" << describe(s) << ")";
      return;
    }
  }
  for (std::size_t k = 0; k < std::size(tags); ++k) {
    EXPECT_GT(traffic[k], 0u) << "no traffic on tag " << tags[k];
  }
  EXPECT_GT(face_seeds, 0);
  EXPECT_GT(fused_seeds, 0);
}

}  // namespace
}  // namespace kali
