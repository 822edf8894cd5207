// Two-dimensional multigrid with zebra line relaxation and y-semicoarsening
// — the paper's mg2 (Listing 11), used standalone and as the plane solver
// inside mg3.
//
// Arrays are boundary-inclusive, u(0:nx, 0:ny), dist (*, block) over a 1-D
// processor view with halo 1 on the y dimension; boundary values are held
// at zero (homogeneous Dirichlet).  ny must be a power of two (checked:
// the y-semicoarsening halves it at every level); nx is not coarsened and
// may be any size.
//
// One cycle =
//   zebra relaxation on even lines   (tridiagonal solves along x: seqtri)
//   zebra relaxation on odd lines
//   coarse grid correction on the y-semicoarsened grid (recursive), via
//     rest2 (full weighting in y) and intrp2 (linear interpolation in y,
//     Listing 10's 2-D analogue); each level switch is one scheduled
//     redistribution that also delivers the ghosts the stencil needs
//     (copy_strided_dim_halo)
// Recursion stops when the coarse grid would leave a processor without
// rows; the coarsest level compensates with extra zebra sweeps.
#pragma once

#include "runtime/dist_array.hpp"
#include "solvers/model.hpp"

namespace kali {

struct Mg2Options {
  int coarsest_sweeps = 4;  ///< extra zebra sweeps when recursion stops
};

/// One V-cycle on A u = f for the operator `op` (hx, hy are this level's
/// spacings).  Collective over u's view.  Throws kali::Error unless ny is
/// a power of two.
void mg2_cycle(const Op2& op, DistArray2<double>& u, const DistArray2<double>& f,
               const Mg2Options& opts = {});

/// ||f - A u||_2 over interior points (replicated on all members).
double mg2_residual_norm(const Op2& op, const DistArray2<double>& u,
                         const DistArray2<double>& f);

/// One zebra half-sweep (parity 0: even lines, 1: odd lines).  Lines of
/// one parity are mutually independent (each reads only the other colour).
void mg2_zebra_sweep(const Op2& op, DistArray2<double>& u,
                     const DistArray2<double>& f, int parity);

namespace detail {
/// True if a block distribution of `npts` points over `nprocs` leaves every
/// processor at least one point (so halos stay well-formed).
bool coarsenable(int npts, int nprocs);
}  // namespace detail

}  // namespace kali
