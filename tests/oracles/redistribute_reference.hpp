// The original "runtime resolution" redistribution: the oracle redistribute()
// is differentially tested against and the baseline bench_redistribute (E10)
// measures the analytic protocol against.
//
// Every source member tests every owned element against every destination
// rank (O(local n × P)) and sends per-element {index, value} packets to
// *all* destination ranks, empty lists included, in plain peer order.  The
// one fix it shares with redistribute(): a rank's packets to *itself* are
// applied locally instead of round-tripping through the mailbox.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "machine/message.hpp"  // kTagRedistData
#include "runtime/dist_array.hpp"
#include "runtime/io.hpp"  // linearize

namespace kali::oracles {

/// Inverse of linearize() for a given extent tuple (row-major).
template <int R>
GIndex<R> delinearize(std::int64_t f, const GIndex<R>& ext) {
  GIndex<R> g{};
  for (int d = R - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    g[ud] = static_cast<int>(f % ext[ud]);
    f /= ext[ud];
  }
  return g;
}

/// Copy src's contents into dst by the all-pairs packet flood.  Collective
/// over the union of both views' members, like redistribute().
template <class T, int R>
void redistribute_reference(Context& ctx, const DistArray<T, R>& src,
                            DistArray<T, R>& dst) {
  GIndex<R> ext{};
  for (int d = 0; d < R; ++d) {
    KALI_CHECK(src.extent(d) == dst.extent(d), "redistribute: extent mismatch");
    ext[static_cast<std::size_t>(d)] = src.extent(d);
  }
  const bool in_src = src.participating();
  const bool in_dst = dst.participating();
  if (!in_src && !in_dst) {
    return;
  }

  struct Packet {
    std::int64_t idx;
    T val;
  };
  std::vector<int> peers = dst.view().ranks();
  std::vector<std::vector<Packet>> outgoing;
  std::vector<Packet> self_pkts;
  if (in_src) {
    outgoing.assign(peers.size(), {});
    src.for_each_owned([&](GIndex<R> g) {
      const std::int64_t f = linearize(src, g);
      for (std::size_t pi = 0; pi < peers.size(); ++pi) {
        const auto coord = dst.view().coord_of(peers[pi]);
        bool owns = true;
        for (int d = 0; d < R && owns; ++d) {
          const int pd = dst.proc_dim(d);
          if (pd >= 0 &&
              dst.map(d).owner(g[static_cast<std::size_t>(d)]) !=
                  (*coord)[static_cast<std::size_t>(pd)]) {
            owns = false;
          }
        }
        if (owns) {
          outgoing[pi].push_back({f, src.at(g)});
        }
      }
    });
    for (std::size_t pi = 0; pi < peers.size(); ++pi) {
      if (peers[pi] == ctx.rank()) {
        self_pkts = std::move(outgoing[pi]);
        continue;
      }
      ctx.send_span<Packet>(peers[pi], kTagRedistData,
                            std::span<const Packet>(outgoing[pi]));
    }
    ctx.compute(static_cast<double>([&] {
      std::size_t n = self_pkts.size();
      for (const auto& v : outgoing) {
        n += v.size();
      }
      return n;
    }()));
  }
  if (in_dst) {
    for (int srank : src.view().ranks()) {
      if (srank == ctx.rank()) {
        for (const auto& p : self_pkts) {
          dst.at(delinearize<R>(p.idx, ext)) = p.val;
        }
        ctx.compute(static_cast<double>(self_pkts.size()));
        continue;
      }
      auto pkts = ctx.recv_vec<Packet>(srank, kTagRedistData);
      for (const auto& p : pkts) {
        dst.at(delinearize<R>(p.idx, ext)) = p.val;
      }
      ctx.compute(static_cast<double>(pkts.size()));
    }
  }
}

}  // namespace kali::oracles
