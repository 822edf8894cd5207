#include "metrics/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "machine/topology.hpp"
#include "support/check.hpp"

namespace kali {

namespace {
int log2i(int p) {
  KALI_CHECK(p >= 1 && (p & (p - 1)) == 0, "predictor: p must be 2^k");
  int k = 0;
  while ((1 << k) < p) {
    ++k;
  }
  return k;
}

/// The two serialization bottlenecks the store-and-forward simulator
/// produces for an all-pairs exchange on p ranks, computed exactly from
/// the deterministic routes:
///  * injection — per sender, messages sharing a first-hop edge serialize
///    on the sender's own out-edge clock; the heaviest such edge over all
///    senders.
///  * funnel — per receiver, messages crossing a shared later edge queue
///    in that receiver's ledger; the heaviest such edge over all
///    receivers.
struct SfLoads {
  int injection = 0;
  int funnel = 0;
};

SfLoads sf_transpose_loads(Topology topo, int p) {
  SfLoads loads;
  std::map<std::int64_t, int> edge_count;
  for (int a = 0; a < p; ++a) {
    edge_count.clear();
    for (int b = 0; b < p; ++b) {
      if (b == a) {
        continue;
      }
      ++edge_count[edge_id(a, first_hop(topo, p, a, b))];
    }
    for (const auto& [e, n] : edge_count) {
      loads.injection = std::max(loads.injection, n);
    }
  }
  for (int b = 0; b < p; ++b) {
    edge_count.clear();
    for (int a = 0; a < p; ++a) {
      if (a == b) {
        continue;
      }
      const std::vector<int> path = route(topo, p, a, b);
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        ++edge_count[edge_id(path[i], path[i + 1])];
      }
    }
    for (const auto& [e, n] : edge_count) {
      loads.funnel = std::max(loads.funnel, n);
    }
  }
  return loads;
}
}  // namespace

double Predictor::halo_exchange2(int nx, int ny, int px, int py) const {
  // Interior processor: 4 faces out, 4 in; sends overlap, one wire round.
  const int mx = nx / std::max(px, 1);
  const int my = ny / std::max(py, 1);
  const double pack = 2.0 * (mx + my) * 2.0 * ft();  // pack + unpack
  const double overheads =
      4.0 * (cfg_.send_overhead + cfg_.recv_overhead);
  // Grid neighbours sit 1-2 hypercube hops apart; the critical face is the
  // larger one.
  const double wire = cfg_.latency + cfg_.per_hop +
                      8.0 * std::max(mx, my) * cfg_.byte_time;
  return pack + overheads + wire;
}

double Predictor::jacobi_iteration(int n, int p_side) const {
  const int m = n / std::max(p_side, 1);
  const double compute =
      ft() * (static_cast<double>(m + 2) * (m + 2)  // copy-in clone
              + 6.0 * m * m);                       // stencil
  if (p_side <= 1) {
    return ft() * (static_cast<double>(n) * n + 6.0 * n * n);
  }
  return compute + halo_exchange2(n, n, p_side, p_side);
}

double Predictor::tri_solve(int n, int p) const {
  const int mloc = n / std::max(p, 1);
  if (p <= 1) {
    return ft() * 8.0 * n;  // Thomas
  }
  const int k = log2i(p);
  // Critical path through the fold: local reduction, k-1 merges, the root
  // Thomas, k-1 substitution levels, local substitution.  The fold's pair
  // messages travel one hypercube hop (ranks differ in a single bit).
  double t = ft() * (12.0 * mloc + 5.0 * mloc);  // stage 1 + local subst
  const double pair_msg = message(8 * 8, 1);     // 8 doubles
  const double sol_msg = message(2 * 8, 1);      // 2 doubles
  t += (k - 1) * (pair_msg + ft() * 48.0);       // merges
  t += pair_msg + ft() * 32.0;                   // root Thomas
  t += (k - 1) * (sol_msg + ft() * 10.0);        // substitution levels
  t += sol_msg;                                  // final pair delivery
  return t;
}

double Predictor::mtri_solve(int nsys, int n, int p) const {
  const int mloc = n / std::max(p, 1);
  if (p <= 1) {
    return nsys * ft() * 8.0 * n;
  }
  const int k = log2i(p);
  // Steady state: every global step a processor reduces one fresh system
  // (stage 1) and back-substitutes another, plus O(1) tree work; the
  // pipeline runs nsys + 2k steps.  Unlike the one-shot solver, message
  // latency is hidden behind the next system's stage-1 work, so only the
  // per-message software overheads stay on the critical path.
  const double per_step = ft() * (12.0 * mloc + 5.0 * mloc + 60.0) +
                          cfg_.send_overhead + cfg_.recv_overhead;
  return (nsys + 2.0 * k) * per_step + message(8 * 8, 1);
}

double Predictor::all_to_all(int p, double bytes,
                             LinkContention model) const {
  KALI_CHECK(p >= 1, "all_to_all: p must be positive");
  if (p <= 1) {
    return 0.0;
  }
  const int d = diameter(cfg_.topology, p);
  // Worst-separated pair bounds the one-off latency term.
  const double alpha = cfg_.latency + cfg_.per_hop * (d - 1);
  const double slab = bytes * cfg_.byte_time;
  const double per_msg = cfg_.send_overhead + cfg_.recv_overhead;
  switch (model) {
    case LinkContention::kNone:
      // Slabs overlap on infinitely parallel links: p-1 software overheads
      // back to back, one latency, and only the last slab's wire time
      // shows.
      return (p - 1) * per_msg + alpha + slab;
    case LinkContention::kPorts:
      // Round-structured: each of the p-1 rounds moves one slab per port,
      // and rounds pipeline — whichever of wire time and software overhead
      // is larger paces the rounds; the final slab's drain and latency are
      // paid once.
      return (p - 1) * std::max(slab, per_msg) + alpha + slab + per_msg;
    case LinkContention::kStoreForward: {
      // The busiest serialized edge paces the exchange; round order lets
      // the injection serialization and the funnel drain overlap fully, so
      // only the heavier of the two shows, plus a (d-1)-deep
      // store-and-forward tail for the last slab (its first wire time is
      // already inside the bottleneck drain).
      const SfLoads loads = sf_transpose_loads(cfg_.topology, p);
      const double paced = std::max(loads.injection, loads.funnel) *
                           std::max(slab, per_msg);
      return paced + (d - 1) * slab + alpha + (p - 1) * per_msg;
    }
  }
  KALI_FAIL("unknown link contention model");
}

double Predictor::all_to_all_naive(int p, double bytes,
                                   LinkContention model) const {
  KALI_CHECK(p >= 1, "all_to_all: p must be positive");
  KALI_CHECK(model != LinkContention::kNone,
             "all_to_all_naive: issue order only matters under contention");
  if (p <= 1) {
    return 0.0;
  }
  const int d = diameter(cfg_.topology, p);
  const double alpha = cfg_.latency + cfg_.per_hop * (d - 1);
  const double slab = bytes * cfg_.byte_time;
  const double per_msg = cfg_.send_overhead + cfg_.recv_overhead;
  if (model == LinkContention::kPorts) {
    // Ascending-peer issue: every rank's k-th injection targets ejection
    // port k, so the last port receives a whole wave at once and drains it
    // serially after its own injections finish — the wire term doubles.
    return 2.0 * (p - 1) * std::max(slab, per_msg) + alpha + slab + per_msg;
  }
  // Store-and-forward: all p-1 messages toward one destination launch in
  // the same wave, so the last destination's funnel drains after the
  // injection serialization instead of overlapping it.  The senders' busy
  // out-edges still spread the arrivals, so about half the thinner
  // resource's drain stays exposed on top of the scheduled cost.
  const SfLoads loads = sf_transpose_loads(cfg_.topology, p);
  const double paced = std::max(loads.injection, loads.funnel) *
                       std::max(slab, per_msg);
  const double exposed =
      0.5 * std::min(loads.injection, loads.funnel) * slab;
  return paced + exposed + (d - 1) * slab + alpha + (p - 1) * per_msg;
}

double Predictor::all_to_all_lockstep(int p, double bytes,
                                      LinkContention model) const {
  KALI_CHECK(p >= 1, "all_to_all: p must be positive");
  if (p <= 1) {
    return 0.0;
  }
  const double slab = bytes * cfg_.byte_time;
  const double per_msg = cfg_.send_overhead + cfg_.recv_overhead;
  // The busiest member's total hop count to all peers: lockstep exposes
  // every round's latency, so the per-round hop terms accumulate instead of
  // pipelining behind later sends.
  int hop_sum = 0;
  for (int i = 0; i < p; ++i) {
    int s = 0;
    for (int j = 0; j < p; ++j) {
      if (j != i) {
        s += hop_count(cfg_.topology, p, i, j);
      }
    }
    hop_sum = std::max(hop_sum, s);
  }
  const double base = (p - 1) * (per_msg + cfg_.latency) +
                      cfg_.per_hop * (hop_sum - (p - 1));
  // Wire time: once per message at the ejection port (kNone and kPorts are
  // indistinguishable in lockstep — ports are idle again by the time a
  // member's next round begins), once per traversed edge for
  // store-and-forward.
  const double wire = model == LinkContention::kStoreForward
                          ? hop_sum * slab
                          : (p - 1) * slab;
  return base + wire;
}

double Predictor::all_gather(int p, double bytes, LinkContention model) const {
  // Wire-identical to the scheduled transpose: every ordered pair carries
  // one `bytes` message through the same perfect-matching rounds.
  return all_to_all(p, bytes, model);
}

double Predictor::adi_iteration(int n, int px, int py, bool pipelined) const {
  const int mx = n / std::max(px, 1);
  const int my = n / std::max(py, 1);
  // Residual: copy-in + 10-flop stencil + halo; update: 1 flop/point.
  double t = ft() * (static_cast<double>(mx + 2) * (my + 2) +
                     11.0 * static_cast<double>(mx) * my);
  if (px * py > 1) {
    t += halo_exchange2(n, n, px, py);
  }
  if (pipelined) {
    t += mtri_solve(mx, n, py) + mtri_solve(my, n, px);
  } else {
    t += mx * tri_solve(n, py) + my * tri_solve(n, px);
  }
  return t;
}

}  // namespace kali
