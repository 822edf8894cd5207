// Three-dimensional multigrid with zebra plane relaxation and
// z-semicoarsening — the paper's mg3 (Listing 9) with intrp3 (Listing 10)
// and rest3/resid3.
//
// Arrays are boundary-inclusive, u(0:nx, 0:ny, 0:nz), dist (*, block, block)
// over procs(px, py) with halo (0, 1, 1).  nz must be a power of two (the
// z-semicoarsening halves it at every level) and so must ny (the inner mg2
// coarsens the planes in y); both are checked, nx may be any size.  The
// zebra relaxation visits even z-planes then odd z-planes, and each z-level
// switch is one scheduled redistribution that also delivers the stencil's
// ghosts (copy_strided_dim_halo).  Each plane solve is itself a tensor product
// multigrid algorithm: a call to mg2 on the plane slice u(*, *, k), which
// inherits the one-dimensional processor view procs(*, kp) — exactly the
// composition the paper's section 5 is about.
#pragma once

#include "runtime/dist_array.hpp"
#include "solvers/mg2.hpp"
#include "solvers/model.hpp"

namespace kali {

struct Mg3Options {
  int plane_cycles = 1;    ///< mg2 V-cycles per plane solve
  int gamma = 1;           ///< coarse-grid visits per cycle (1 = V, 2 = W)
  bool post_zebra = true;  ///< zebra sweep after the coarse correction
  Mg2Options plane_mg2{};  ///< settings for the inner mg2
};

/// One V-cycle on A u = f.  Collective over u's 2-D view.  Throws
/// kali::Error unless nz is a power of two (and, through the plane solves'
/// mg2_cycle, ny).
void mg3_cycle(const Op3& op, DistArray3<double>& u, const DistArray3<double>& f,
               const Mg3Options& opts = {});

/// ||f - A u||_2 over interior points (replicated on all members).
double mg3_residual_norm(const Op3& op, const DistArray3<double>& u,
                         const DistArray3<double>& f);

/// Zebra plane half-sweep (parity 0: even planes, 1: odd planes); exposed
/// for tests and the smoother ablation bench.
void mg3_zebra_sweep(const Op3& op, DistArray3<double>& u,
                     const DistArray3<double>& f, int parity,
                     const Mg3Options& opts);

}  // namespace kali
