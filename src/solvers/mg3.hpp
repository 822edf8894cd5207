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
// multigrid algorithm: mg2 on the plane u(*, *, k), which inherits the
// one-dimensional processor view procs(*, kp) — exactly the composition the
// paper's section 5 is about.  The planes of one colour are independent, so
// each processor column solves all of its planes of that colour as one
// stacked mg2 (the planes a third tensor dimension, as mtri batches lines):
// one message per peer carries every plane, and mg2's coarse levels spread
// whole planes over the column.  The half-sweep's residual is computed on
// those planes only, straight into the column's stack.
//
// When the next z level would leave a processor column without planes, the
// coarse levels are agglomerated onto the widest leading column range that
// holds that level and every coarser one (detail::agglomeration_width): the
// level switch restricts straight onto that range and interpolates straight
// back, and the remaining levels run there without agglomerating again.
// Agglomeration chooses only where the coarse grid lives, so the results
// are bit-identical to one rank's on every processor grid; the range's
// plane solves run side by side.
#pragma once

#include "runtime/dist_array.hpp"
#include "solvers/mg2.hpp"
#include "solvers/model.hpp"

namespace kali {

struct Mg3Options {
  int plane_cycles = 1;    ///< stacked mg2 V-cycles per half-sweep
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

/// Zebra plane half-sweep (parity 0: even planes, 1: odd planes): one
/// stacked mg2 per processor column.  Collective over u's view, columns
/// without planes of this parity included.  Exposed for tests and the
/// smoother ablation bench.
void mg3_zebra_sweep(const Op3& op, DistArray3<double>& u,
                     const DistArray3<double>& f, int parity,
                     const Mg3Options& opts);

}  // namespace kali
