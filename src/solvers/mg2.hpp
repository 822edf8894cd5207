// Two-dimensional multigrid with zebra line relaxation and y-semicoarsening
// — the paper's mg2 (Listing 11), used standalone and as the plane solver
// inside mg3.
//
// mg2 solves a *stack* of independent planes at once: u(0:nx, 0:ny, 0:nb-1)
// holds nb boundary-inclusive planes, dist (*, block, *) over a 1-D
// processor view with halo 1 on the y dimension; boundary values are held
// at zero (homogeneous Dirichlet).  A single plane is a stack with nb = 1.
// The planes share nothing but their messages: every halo and level switch
// carries all nb planes in one message per peer, as mtri batches its lines
// (the paper's Listing 8).  ny must be a power of two (checked: the
// y-semicoarsening halves it at every level); nx is not coarsened and may
// be any size.
//
// One cycle =
//   zebra relaxation on even lines   (tridiagonal solves along x: seqtri)
//   zebra relaxation on odd lines
//   coarse grid correction on the y-semicoarsened grid (recursive), via
//     rest2 (full weighting in y) and intrp2 (linear interpolation in y,
//     Listing 10's 2-D analogue); each level switch is one scheduled
//     redistribution that also delivers the ghosts the stencil needs
//     (copy_strided_dim_halo)
// When the coarse grid would leave a processor without rows, the remaining
// levels are agglomerated by planes instead: the level switch restricts
// onto the layout (*, *, block), so whole planes spread over the view's
// members (with nb = 1, onto its first member alone), and the levels below
// run on that layout without messages.  Only the coarse layout changes, so
// the results are bit-identical to one rank's.  The coarsest level
// compensates with extra zebra sweeps.
#pragma once

#include "runtime/dist_array.hpp"
#include "solvers/model.hpp"

namespace kali {

struct Mg2Options {
  int coarsest_sweeps = 4;  ///< extra zebra sweeps when recursion stops
};

/// One V-cycle on A u = f, plane by plane, for the operator `op` (hx, hy
/// are this level's spacings).  Collective over u's view.  Throws
/// kali::Error unless ny is a power of two.
void mg2_cycle(const Op2& op, DistArray3<double>& u, const DistArray3<double>& f,
               const Mg2Options& opts = {});

/// ||f - A u||_2 over the interior points of every plane (replicated on
/// all members).
double mg2_residual_norm(const Op2& op, const DistArray3<double>& u,
                         const DistArray3<double>& f);

/// One zebra half-sweep over every plane (parity 0: even lines, 1: odd
/// lines).  Lines of one parity are mutually independent (each reads only
/// the other colour).
void mg2_zebra_sweep(const Op2& op, DistArray3<double>& u,
                     const DistArray3<double>& f, int parity);

namespace detail {
/// True if a block distribution of `npts` points over `nprocs` leaves every
/// processor at least one point (so halos stay well-formed).
bool coarsenable(int npts, int nprocs);

/// The widest processor count below `nprocs` over which a block
/// distribution of n + 1 points, and of every coarser semicoarsened level's
/// n/2 + 1, ..., 3 points, is coarsenable; 1 if no wider count is.  mg3
/// agglomerates its coarse z levels onto that many processor columns, so
/// the recursion there never needs to agglomerate again.  n is a power of
/// two >= 2.
int agglomeration_width(int n, int nprocs);
}  // namespace detail

}  // namespace kali
